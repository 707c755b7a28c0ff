// Recorder, statistics helpers and the in-process probes of cmebench.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/rate_matrix.hpp"
#include "core/state_space.hpp"
#include "obs/perf_counters.hpp"
#include "serve/workload.hpp"
#include "solver/operators.hpp"
#include "solver/stencil_operator.hpp"
#include "util/aligned_vector.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "verify/repro_io.hpp"

namespace perfbench {

namespace cm = cmesolve;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

namespace {
thread_local std::vector<int> t_open_spans;
}  // namespace

Recorder::Scope::Scope(Recorder& rec, const char* name, const char* layer,
                       std::int64_t request)
    : rec_(&rec) {
  if (rec.tracing_) id_ = rec.open(name, layer, request);
}

Recorder::Scope::~Scope() {
  if (id_ >= 0) rec_->close(id_);
}

int Recorder::open(const char* name, const char* layer, std::int64_t request) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  s.request = request;
  s.t0 = now_s();
  std::lock_guard<std::mutex> lk(m_);
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  t_open_spans.push_back(id);
  return id;
}

void Recorder::close(int id) {
  const double t1 = now_s();
  t_open_spans.pop_back();
  std::lock_guard<std::mutex> lk(m_);
  spans_[static_cast<std::size_t>(id)].t1 = t1;
}

void Recorder::e2e(const std::string& name, double value,
                   const std::string& unit) {
  std::lock_guard<std::mutex> lk(m_);
  e2e_[name] = Metric{value, unit, "", true};
}

void Recorder::layer(const std::string& name, double value) {
  std::lock_guard<std::mutex> lk(m_);
  layers_[name] = value;
}

std::vector<Recorder::Span> Recorder::spans() const {
  std::lock_guard<std::mutex> lk(m_);
  return spans_;
}

std::map<std::string, double> Recorder::self_seconds() const {
  const std::vector<Span> s = spans();
  std::vector<double> child(s.size(), 0.0);
  for (const Span& sp : s) {
    if (sp.parent >= 0) {
      child[static_cast<std::size_t>(sp.parent)] += sp.t1 - sp.t0;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < s.size(); ++i) {
    self[s[i].layer] += std::max(0.0, s[i].t1 - s[i].t0 - child[i]);
  }
  return self;
}

double l1_distance(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  if (a.size() != b.size()) return 1e300;
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += std::abs(a[i] - b[i]);
  return s;
}

void Outcome::fail(const std::string& why) {
  ++failed;
  if (notes.size() < 8) notes.push_back(why);
}

// ---------------------------------------------------------------------------
// Machine probes
// ---------------------------------------------------------------------------

namespace {

std::size_t parse_cache_size(const std::string& text) {
  std::size_t v = 0;
  char suffix = 0;
  std::istringstream in(text);
  in >> v >> suffix;
  if (suffix == 'K') return v << 10;
  if (suffix == 'M') return v << 20;
  return v;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Value of a "Key:   value kB" line of /proc/self/status, or -1.
long long proc_status_field(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(f, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::atoll(line.c_str() + prefix.size());
    }
  }
  return -1;
}

}  // namespace

CacheInfo cache_info() {
  CacheInfo c;
  for (int idx = 0; idx < 8; ++idx) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    const std::string level = read_file(base + "level");
    if (level.empty()) break;
    const std::string type = read_file(base + "type");
    if (type.rfind("Instruction", 0) == 0) continue;
    const std::size_t size = parse_cache_size(read_file(base + "size"));
    const int lv = std::atoi(level.c_str());
    if (lv == 2) c.l2_bytes = size;
    if (size > 0 && lv >= 2) c.llc_bytes = size;
  }
  return c;
}

TriadResult stream_triad(const CacheInfo& caches) {
  const std::size_t floor_bytes = std::size_t{64} << 20;
  const std::size_t bytes = std::max(floor_bytes, 4 * caches.llc_bytes);
  const std::size_t n = bytes / sizeof(double);
  cm::util::aligned_vector<double> a(n);
  cm::util::aligned_vector<double> b(n);
  cm::util::aligned_vector<double> c(n);
  double* pa = a.data();
  double* pb = b.data();
  double* pc = c.data();
  // First touch on the pool's threads, like the solver's own vectors.
  cm::util::parallel_for(n, [=](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      pa[i] = 0.0;
      pb[i] = 1.0;
      pc[i] = 2.0;
    }
  });
  double best = 1e300;
  for (int pass = 0; pass < 5; ++pass) {
    const double s = 3.0 + pass;
    const double t0 = now_s();
    cm::util::parallel_for(n, [=](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + s * pc[i];
    });
    best = std::min(best, now_s() - t0);
  }
  if (pa[n / 2] != 1.0 + 7.0 * 2.0) best = 1e300;  // keep the stores live
  TriadResult r;
  r.array_bytes = n * sizeof(double);
  r.gbps = 3.0 * static_cast<double>(r.array_bytes) / best / 1e9;
  return r;
}

double peak_rss_mib() {
  return static_cast<double>(proc_status_field("VmHWM")) / 1024.0;
}

int live_threads() { return static_cast<int>(proc_status_field("Threads")); }

ThreadSampler::ThreadSampler()
    : peak_(live_threads()), worker_([this] {
        while (!stop_.load()) {
          // The sampler thread itself is not part of the workload.
          const int t = live_threads() - 1;
          int prev = peak_.load();
          while (t > prev && !peak_.compare_exchange_weak(prev, t)) {
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }) {}

ThreadSampler::~ThreadSampler() {
  stop_ = true;
  worker_.join();
}

std::string provenance_json(const Args& args, const CacheInfo& caches) {
  std::ostringstream o;
  o << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
    << ", \"seconds\": " << args.seconds
    << ", \"simd_isa\": \"" << cm::util::simd::active_isa_name() << "\""
    << ", \"cmesolve_threads\": " << args.threads
    << ", \"omp_num_threads\": " << args.omp_threads
    << ", \"pool_threads\": " << cm::util::max_threads()
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"l2_bytes_per_core\": " << caches.l2_bytes
    << ", \"llc_bytes\": " << caches.llc_bytes
    << ", \"perf_available\": "
    << (cm::obs::perf_available() ? "true" : "false")
    << ", \"bytes_are\": \"computed\"}";
  return o.str();
}

cm::core::ReactionNetwork jitter_rates(const cm::core::ReactionNetwork& net,
                                       std::uint64_t seed, double spread) {
  cm::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL + 0x51ED27);
  cm::core::ReactionNetwork out;
  for (int s = 0; s < net.num_species(); ++s) {
    out.add_species(net.species_name(s), net.capacity(s));
  }
  for (const cm::core::Reaction& r : net.reactions()) {
    cm::core::Reaction j = r;
    j.rate = r.rate * std::exp(spread * (2.0 * rng.uniform() - 1.0));
    out.add_reaction(std::move(j));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Layer probes on a workload's main network
// ---------------------------------------------------------------------------

namespace {

template <class Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(std::move(t));
}

}  // namespace

void probe_network_layers(Recorder& rec, const cm::core::ReactionNetwork& net,
                          const cm::core::State& initial, double triad_gbps) {
  double t0 = now_s();
  const cm::core::StateSpace space = [&] {
    Recorder::Scope s(rec, "core.StateSpace", "core");
    return cm::core::StateSpace(net, initial, 50'000'000);
  }();
  rec.layer("core.enumerate_s", now_s() - t0);
  rec.layer("core.states", space.size());

  t0 = now_s();
  const cm::solver::StencilOperator op = [&] {
    Recorder::Scope s(rec, "core.StencilTable", "core");
    return cm::solver::StencilOperator(net, initial);
  }();
  rec.layer("core.stencil_compile_s", now_s() - t0);
  const auto rows = static_cast<double>(op.nrows());
  rec.layer("core.box_rows", rows);
  rec.layer("core.box_active_frac",
            (rows - static_cast<double>(op.rows_masked())) / rows);

  std::vector<real_t> p(static_cast<std::size_t>(space.size()),
                        1.0 / static_cast<real_t>(space.size()));
  std::vector<real_t> x(static_cast<std::size_t>(op.nrows()));
  std::vector<real_t> y(x.size());
  op.scatter_from(space, p, x);
  op.multiply(x, y);  // first touch of y
  const double sweep_s = [&] {
    Recorder::Scope s(rec, "solver.StencilOperator::multiply", "solver");
    return median_seconds(30, [&] { op.multiply(x, y); });
  }();
  const double sweep_bytes =
      static_cast<double>(op.table().bytes_modeled()) +
      2.0 * rows * static_cast<double>(sizeof(real_t));
  rec.layer("solver.sweep_s", sweep_s);
  rec.layer("solver.sweep_bytes", sweep_bytes);
  rec.layer("solver.sweep_bw_frac",
            triad_gbps > 0 ? sweep_bytes / sweep_s / (triad_gbps * 1e9) : 0.0);

  // The assembled CSR SpMV the serve workers run, inside an InlineRegion
  // exactly as a worker enters it.
  {
    const cm::sparse::Csr a = cm::core::rate_matrix(space);
    const cm::solver::CsrOperator csr(a);
    std::vector<real_t> cy(p.size());
    cm::util::InlineRegion inline_region;
    csr.multiply(p, cy);
    Recorder::Scope s(rec, "sparse.CsrOperator::multiply", "sparse");
    rec.layer("sparse.csr_spmv_s",
              median_seconds(30, [&] { csr.multiply(p, cy); }));
  }

  // The wire parse of this network as a serve request.
  {
    const std::string bytes = cm::verify::serialize_repro(
        cm::serve::scenario_from_network("probe", net, initial, 50'000'000));
    Recorder::Scope s(rec, "verify.parse_repro", "verify");
    const double parse_s = median_seconds(50, [&] {
      const auto sc = cm::verify::parse_repro(bytes);
      if (sc.reactions.empty()) std::abort();
    });
    rec.layer("verify.parse_us", parse_s * 1e6);
  }
}

// ---------------------------------------------------------------------------

void record_answer_metrics(Recorder& rec, const std::vector<double>& setup_s,
                           const std::vector<double>& solve_s,
                           const std::vector<double>& latency_ms,
                           double throughput_rps, double peak_rss) {
  rec.e2e("setup_s", median(setup_s), "s");
  rec.e2e("solve_s", median(solve_s), "s");
  rec.e2e("latency_p50_ms", quantile(latency_ms, 0.50), "ms");
  rec.e2e("latency_p95_ms", quantile(latency_ms, 0.95), "ms");
  rec.e2e("throughput_rps", throughput_rps, "req/s");
  rec.e2e("peak_rss_mb", peak_rss, "MiB");
}

}  // namespace perfbench
