//
// Single implementation TU for the observability layer (trace buffer, metric
// registry, run-report writer, env-var activation). Keeping everything in one
// TU guarantees that any use of the inline fast paths links the definitions
// of the enable flags AND the env initializer below — so CMESOLVE_TRACE /
// CMESOLVE_REPORT work in every binary that touches obs, without each main()
// having to opt in.
//
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

#ifndef CMESOLVE_VERSION
#define CMESOLVE_VERSION "0.0.0"
#endif
#ifndef CMESOLVE_GIT_DESCRIBE
#define CMESOLVE_GIT_DESCRIBE "unknown"
#endif

namespace cmesolve::obs {

namespace detail {
// Zero-initialized: constant initialization, valid before any dynamic init.
std::atomic<bool> g_trace_on{false};
std::atomic<bool> g_metrics_on{false};
std::atomic<bool> g_flight_on{false};
// constinit at every declaration: TUs then read the thread-local directly
// instead of through a TLS init wrapper, which UBSan reported as null
// pointer loads and stores on worker threads.
constinit thread_local int t_suppress_depth = 0;
}  // namespace detail

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

namespace {

/// Cap the buffer so a 10^6-iteration instrumented solve cannot exhaust
/// memory; overflow is counted and surfaced in the trace metadata.
constexpr std::size_t kMaxEvents = 1u << 22;  // ~4M events

struct TracerState {
  mutable std::mutex mu;
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
  std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();
  std::map<std::thread::id, std::uint32_t> tids;

  std::uint32_t tid_locked() {
    const auto id = std::this_thread::get_id();
    auto it = tids.find(id);
    if (it != tids.end()) return it->second;
    const auto dense = static_cast<std::uint32_t>(tids.size());
    tids.emplace(id, dense);
    return dense;
  }

  void push(const char* name, char phase, double value) {
    std::lock_guard<std::mutex> lock(mu);
    if (events.size() >= kMaxEvents) {
      ++dropped;
      return;
    }
    const auto now = std::chrono::steady_clock::now();
    TraceEvent ev;
    ev.name = name;
    ev.phase = phase;
    ev.tid = tid_locked();
    ev.ts_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch)
            .count());
    ev.value = value;
    events.push_back(std::move(ev));
  }
};

TracerState& tracer_state() {
  static TracerState state;
  return state;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable() {
  auto& s = tracer_state();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.events.clear();
    s.dropped = 0;
    s.tids.clear();
    s.epoch = std::chrono::steady_clock::now();
  }
  detail::g_trace_on.store(true, std::memory_order_relaxed);
}

void Tracer::disable() {
  detail::g_trace_on.store(false, std::memory_order_relaxed);
}

void Tracer::clear() {
  auto& s = tracer_state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.events.clear();
  s.dropped = 0;
  s.tids.clear();
}

void Tracer::begin(const char* name) { tracer_state().push(name, 'B', 0.0); }
void Tracer::end(const char* name) { tracer_state().push(name, 'E', 0.0); }
void Tracer::instant(const char* name) { tracer_state().push(name, 'i', 0.0); }
void Tracer::counter(const char* name, double value) {
  tracer_state().push(name, 'C', value);
}

std::size_t Tracer::size() const {
  auto& s = tracer_state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.events.size();
}

std::uint64_t Tracer::dropped() const {
  auto& s = tracer_state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.dropped;
}

std::int64_t Tracer::open_spans() const {
  auto& s = tracer_state();
  std::lock_guard<std::mutex> lock(s.mu);
  std::int64_t open = 0;
  for (const auto& ev : s.events) {
    if (ev.phase == 'B') ++open;
    if (ev.phase == 'E') --open;
  }
  return open;
}

std::uint64_t Tracer::content_signature() const {
  auto& s = tracer_state();
  std::lock_guard<std::mutex> lock(s.mu);
  // Order-independent fold (sum of per-event hashes): concurrent spans from
  // different threads may interleave differently run-to-run, but the *set*
  // of events is deterministic.
  std::uint64_t sig = 0;
  for (const auto& ev : s.events) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    h = fnv1a(h, ev.name.data(), ev.name.size());
    h = fnv1a(h, &ev.phase, sizeof(ev.phase));
    h = fnv1a(h, &ev.value, sizeof(ev.value));
    sig += h;
  }
  return sig;
}

std::vector<TraceEvent> Tracer::events() const {
  auto& s = tracer_state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.events;
}

void Tracer::write_json(std::ostream& os) const {
  auto& s = tracer_state();
  std::lock_guard<std::mutex> lock(s.mu);
  JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const auto& ev : s.events) {
    w.begin_object();
    w.kv("name", std::string_view(ev.name));
    w.key("ph").value(std::string_view(&ev.phase, 1));
    // trace_event timestamps are microseconds (double => sub-us resolution).
    w.kv("ts", static_cast<double>(ev.ts_ns) / 1000.0);
    w.kv("pid", std::int64_t{1});
    w.kv("tid", static_cast<std::int64_t>(ev.tid));
    if (ev.phase == 'C') {
      w.key("args").begin_object();
      w.kv("value", ev.value);
      w.end_object();
    } else if (ev.phase == 'i') {
      w.kv("s", "t");  // instant scope: thread
    }
    w.end_object();
  }
  w.end_array();
  w.kv("displayTimeUnit", "ns");
  w.key("otherData").begin_object();
  w.kv("tool", "cmesolve");
  w.kv("dropped_events", s.dropped);
  w.end_object();
  w.end_object();
  os << '\n';
}

bool Tracer::write_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write_json(os);
  return os.good();
}

void TraceSpan::emit_begin() { Tracer::instance().begin(name_); }
void TraceSpan::emit_end() { Tracer::instance().end(name_); }

// ---------------------------------------------------------------------------
// MetricRegistry
// ---------------------------------------------------------------------------

namespace {

struct RegistryState {
  mutable std::mutex mu;
  std::map<std::string, Metric> metrics;
};

RegistryState& registry_state() {
  static RegistryState state;
  return state;
}

void format_double(std::ostream& os, double d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  os << buf;
}

}  // namespace

MetricRegistry& MetricRegistry::instance() {
  static MetricRegistry registry;
  return registry;
}

void set_metrics_enabled(bool on) {
  detail::g_metrics_on.store(on, std::memory_order_relaxed);
}

void MetricRegistry::add_counter(const std::string& name, std::uint64_t delta) {
  auto& s = registry_state();
  std::lock_guard<std::mutex> lock(s.mu);
  auto& m = s.metrics[name];
  m.kind = MetricKind::kCounter;
  m.count += delta;
}

void MetricRegistry::set_gauge(const std::string& name, double value,
                               bool is_volatile) {
  auto& s = registry_state();
  std::lock_guard<std::mutex> lock(s.mu);
  auto& m = s.metrics[name];
  m.kind = MetricKind::kGauge;
  m.is_volatile = is_volatile;
  m.gauge = value;
}

void MetricRegistry::observe(const std::string& name, double value,
                             bool is_volatile) {
  auto& s = registry_state();
  std::lock_guard<std::mutex> lock(s.mu);
  auto& m = s.metrics[name];
  m.kind = MetricKind::kHistogram;
  m.is_volatile = is_volatile;
  m.stats.add(value);
}

void MetricRegistry::clear() {
  auto& s = registry_state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.metrics.clear();
}

std::size_t MetricRegistry::size() const {
  auto& s = registry_state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.metrics.size();
}

bool MetricRegistry::empty() const { return size() == 0; }

std::map<std::string, Metric> MetricRegistry::snapshot() const {
  auto& s = registry_state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.metrics;
}

std::string MetricRegistry::deterministic_fingerprint() const {
  const auto snap = snapshot();
  std::ostringstream os;
  for (const auto& [name, m] : snap) {
    if (m.is_volatile) continue;
    os << name << '|';
    switch (m.kind) {
      case MetricKind::kCounter:
        os << "counter|" << m.count;
        break;
      case MetricKind::kGauge:
        os << "gauge|";
        format_double(os, m.gauge);
        break;
      case MetricKind::kHistogram:
        os << "hist|" << m.stats.count() << '|';
        format_double(os, m.stats.min());
        os << '|';
        format_double(os, m.stats.max());
        os << '|';
        format_double(os, m.stats.mean());
        os << '|';
        format_double(os, m.stats.variance());
        break;
    }
    os << '\n';
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Run report + context + output paths
// ---------------------------------------------------------------------------

namespace {

struct ObsState {
  std::mutex mu;
  std::map<std::string, std::string> context;
  std::string trace_path;
  std::string report_path;
  std::string flight_path;
  std::string bench_path;
  std::set<std::string> flushed;  ///< paths already written by flush_outputs
};

ObsState& obs_state() {
  static ObsState state;
  return state;
}

void write_histogram(JsonWriter& w, const Metric& m) {
  w.begin_object();
  w.kv("count", m.stats.count());
  w.kv("min", static_cast<double>(m.stats.min()));
  w.kv("max", static_cast<double>(m.stats.max()));
  w.kv("mean", static_cast<double>(m.stats.mean()));
  w.kv("stddev", static_cast<double>(m.stats.stddev()));
  w.end_object();
}

void write_metric_sections(JsonWriter& w,
                           const std::map<std::string, Metric>& snap,
                           bool volatile_section) {
  w.key("counters").begin_object();
  for (const auto& [name, m] : snap) {
    if (m.kind == MetricKind::kCounter && m.is_volatile == volatile_section) {
      w.kv(name, m.count);
    }
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, m] : snap) {
    if (m.kind == MetricKind::kGauge && m.is_volatile == volatile_section) {
      w.kv(name, m.gauge);
    }
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, m] : snap) {
    if (m.kind == MetricKind::kHistogram &&
        m.is_volatile == volatile_section) {
      w.key(name);
      write_histogram(w, m);
    }
  }
  w.end_object();
}

/// The fixed provenance fields written by write_report/write_bench_record;
/// a context entry reusing one would emit a duplicate JSON key and break
/// strict parsers.
bool is_fixed_provenance_key(const std::string& key) {
  return key == "version" || key == "git" || key == "threads" ||
         key == "openmp" || key == "threads_enabled" ||
         key == "perf_available" || key == "simd";
}

void write_provenance(JsonWriter& w,
                      const std::map<std::string, std::string>& context) {
  w.key("provenance").begin_object();
  w.kv("version", CMESOLVE_VERSION);
  w.kv("git", CMESOLVE_GIT_DESCRIBE);
  w.kv("threads", static_cast<std::int64_t>(util::max_threads()));
  // Kept for schema /2, which requires both: every parallel loop runs on
  // the util pool, which every build links.
  w.kv("openmp", false);
  w.kv("threads_enabled", true);
  w.kv("perf_available", perf_available());
  // The SIMD ISA the kernel dispatcher selected (detected or forced via
  // CMESOLVE_SIMD) — resolved at report time, after any test overrides.
  w.kv("simd", std::string_view(util::simd::active_isa_name()));
  for (const auto& [key, value] : context) {
    if (is_fixed_provenance_key(key)) continue;
    w.kv(key, std::string_view(value));
  }
  w.end_object();
}

/// The run report's post-mortem flight section. Everything here derives from
/// iteration-indexed events recorded on the calling thread — no timestamps,
/// no thread ids — so the serialized section is bit-identical across
/// CMESOLVE_THREADS (the test suite diffs it at 1/2/8).
void write_flight_section(JsonWriter& w) {
  auto& rec = FlightRecorder::instance();
  const auto evs = rec.events();
  w.key("flight").begin_object();
  if (rec.post_mortem()) {
    w.kv("post_mortem", std::string_view(rec.post_mortem_reason()));
  } else {
    w.key("post_mortem").null();
  }
  w.kv("capacity", static_cast<std::uint64_t>(rec.capacity()));
  w.kv("overwritten", rec.overwritten());
  char sig[32];
  std::snprintf(sig, sizeof(sig), "%016llx",
                static_cast<unsigned long long>(rec.content_signature()));
  w.kv("signature", sig);
  w.key("events").begin_array();
  for (const auto& ev : evs) {
    w.begin_object();
    w.kv("track", ev.track);
    w.kv("kind", to_string(ev.kind));
    w.kv("iteration", ev.iteration);
    if (ev.lane > 0) w.kv("lane", static_cast<std::uint64_t>(ev.lane));
    w.kv("value", ev.value);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

void set_context(const std::string& key, const std::string& value) {
  auto& s = obs_state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.context[key] = value;
}

void write_report(std::ostream& os) {
  std::map<std::string, std::string> context;
  {
    auto& s = obs_state();
    std::lock_guard<std::mutex> lock(s.mu);
    context = s.context;
  }
  const auto snap = MetricRegistry::instance().snapshot();

  JsonWriter w(os, /*indent=*/2);
  w.begin_object();
  // /2 is an additive bump over /1: provenance gains "perf_available" and a
  // "flight" section appears when the flight recorder was ever enabled.
  // verify::validate_run_report accepts both versions.
  w.kv("schema", "cmesolve.run_report/2");

  write_provenance(w, context);

  w.key("metrics").begin_object();
  write_metric_sections(w, snap, /*volatile_section=*/false);
  w.end_object();

  w.key("volatile").begin_object();
  write_metric_sections(w, snap, /*volatile_section=*/true);
  w.end_object();

  if (FlightRecorder::instance().capacity() > 0) {
    write_flight_section(w);
  }

  w.end_object();
  os << '\n';
}

// ---------------------------------------------------------------------------
// Bench record (cmesolve.bench/1) — the regression-ledger unit
// ---------------------------------------------------------------------------

namespace {

/// Flatten the registry into two name->number maps: "deterministic" must
/// compare EXACTLY between a fresh run and the checked-in baseline (that is
/// the repo's determinism contract doing ledger duty); "volatile" carries
/// wall-clock-like values that cme_bench_diff holds to a ratio band.
/// Histograms expand to .count/.min/.max/.mean so the differ only ever sees
/// scalars.
void write_flat_metrics(JsonWriter& w, const std::map<std::string, Metric>& snap,
                        bool volatile_section) {
  for (const auto& [name, m] : snap) {
    if (m.is_volatile != volatile_section) continue;
    switch (m.kind) {
      case MetricKind::kCounter:
        w.kv(name, m.count);
        break;
      case MetricKind::kGauge:
        w.kv(name, m.gauge);
        break;
      case MetricKind::kHistogram:
        w.kv(name + ".count", m.stats.count());
        w.kv(name + ".min", static_cast<double>(m.stats.min()));
        w.kv(name + ".max", static_cast<double>(m.stats.max()));
        w.kv(name + ".mean", static_cast<double>(m.stats.mean()));
        break;
    }
  }
}

}  // namespace

void write_bench_record(std::ostream& os) {
  std::map<std::string, std::string> context;
  {
    auto& s = obs_state();
    std::lock_guard<std::mutex> lock(s.mu);
    context = s.context;
  }
  const auto snap = MetricRegistry::instance().snapshot();

  JsonWriter w(os, /*indent=*/2);
  w.begin_object();
  w.kv("schema", "cmesolve.bench/1");
  write_provenance(w, context);
  w.key("deterministic").begin_object();
  write_flat_metrics(w, snap, /*volatile_section=*/false);
  w.end_object();
  w.key("volatile").begin_object();
  write_flat_metrics(w, snap, /*volatile_section=*/true);
  w.end_object();
  w.end_object();
  os << '\n';
}

bool write_bench_record_file(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  write_bench_record(os);
  return os.good();
}

bool write_report_file(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  write_report(os);
  return os.good();
}

void set_trace_path(const std::string& path) {
  auto& s = obs_state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.trace_path = path;
  s.flushed.erase(path);
}

void set_report_path(const std::string& path) {
  auto& s = obs_state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.report_path = path;
  s.flushed.erase(path);
}

std::string trace_path() {
  auto& s = obs_state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.trace_path;
}

std::string report_path() {
  auto& s = obs_state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.report_path;
}

void set_flight_path(const std::string& path) {
  auto& s = obs_state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.flight_path = path;
  s.flushed.erase(path);
}

std::string flight_path() {
  auto& s = obs_state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.flight_path;
}

void set_bench_path(const std::string& path) {
  auto& s = obs_state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.bench_path = path;
  s.flushed.erase(path);
}

std::string bench_path() {
  auto& s = obs_state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.bench_path;
}

void flush_outputs() {
  std::string trace;
  std::string report;
  std::string flight;
  std::string bench;
  {
    auto& s = obs_state();
    std::lock_guard<std::mutex> lock(s.mu);
    if (!s.trace_path.empty() && s.flushed.insert(s.trace_path).second) {
      trace = s.trace_path;
    }
    if (!s.report_path.empty() && s.flushed.insert(s.report_path).second) {
      report = s.report_path;
    }
    if (!s.flight_path.empty() && s.flushed.insert(s.flight_path).second) {
      flight = s.flight_path;
    }
    if (!s.bench_path.empty() && s.flushed.insert(s.bench_path).second) {
      bench = s.bench_path;
    }
  }
  if (!trace.empty() && !Tracer::instance().write_file(trace)) {
    std::fprintf(stderr, "cmesolve: failed to write trace to %s\n",
                 trace.c_str());
  }
  if (!report.empty() && !write_report_file(report)) {
    std::fprintf(stderr, "cmesolve: failed to write report to %s\n",
                 report.c_str());
  }
  if (!flight.empty() && !FlightRecorder::instance().write_file(flight)) {
    std::fprintf(stderr, "cmesolve: failed to write flight trace to %s\n",
                 flight.c_str());
  }
  if (!bench.empty() && !write_bench_record_file(bench)) {
    std::fprintf(stderr, "cmesolve: failed to write bench record to %s\n",
                 bench.c_str());
  }
}

// ---------------------------------------------------------------------------
// Environment activation
// ---------------------------------------------------------------------------

namespace {

/// Dynamic initializer: reads CMESOLVE_TRACE / CMESOLVE_REPORT /
/// CMESOLVE_FLIGHT / CMESOLVE_BENCH once at program startup (of any binary
/// that links this TU) and arranges an atexit flush so instrumented programs
/// produce their files without code changes.
struct EnvInit {
  EnvInit() {
    const char* trace = std::getenv("CMESOLVE_TRACE");
    const char* report = std::getenv("CMESOLVE_REPORT");
    const char* flight = std::getenv("CMESOLVE_FLIGHT");
    const char* bench = std::getenv("CMESOLVE_BENCH");
    bool flush_at_exit = false;
    if (trace != nullptr && trace[0] != '\0') {
      set_trace_path(trace);
      Tracer::instance().enable();
      flush_at_exit = true;
    }
    if (report != nullptr && report[0] != '\0') {
      set_report_path(report);
      set_metrics_enabled(true);
      flush_at_exit = true;
    }
    if (flight != nullptr && flight[0] != '\0') {
      set_flight_path(flight);
      FlightRecorder::instance().enable();
      flush_at_exit = true;
    }
    if (bench != nullptr && bench[0] != '\0') {
      // The ledger record is a view of the metric registry, so the registry
      // must be live for the record to carry anything.
      set_bench_path(bench);
      set_metrics_enabled(true);
      flush_at_exit = true;
    }
    if (flush_at_exit) {
      // Build every function-local static flush_outputs() reads before
      // registering it: a static constructed after std::atexit is
      // destroyed before the handler runs.
      (void)registry_state();
      (void)MetricRegistry::instance();
      (void)obs_state();
      (void)Tracer::instance().size();
      (void)FlightRecorder::instance().capacity();
      std::atexit([] { flush_outputs(); });
    }
  }
};

EnvInit g_env_init;

}  // namespace

}  // namespace cmesolve::obs
