#pragma once
//
// Shared plumbing of the cmebench harness: run arguments, the span recorder
// behind the traced run, metric collection, and the in-process probes.
//
// Every workload times calls into the library's public functions from the
// outside; nothing here reaches into a layer. The library's own
// CMESOLVE_TRACE / REPORT / FLIGHT sinks stay off in every run.
//
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/reaction_network.hpp"
#include "util/types.hpp"

namespace perfbench {

using cmesolve::real_t;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".bench_build/trace";
  int threads = 1;          ///< CMESOLVE_THREADS the run was started with
  int omp_threads = 1;      ///< OMP_NUM_THREADS the run was started with
};

[[nodiscard]] double now_s();
[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// One metric as printed: value, unit, and — for per-layer metrics — the
/// end-to-end metric and workload it is expected to move.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::string moves;  ///< "solve_s@landscape"; empty for end-to-end metrics
  bool exercised = true;  ///< false: this workload never runs the layer
};

/// L1 distance of two vectors; infinite when their sizes differ.
[[nodiscard]] double l1_distance(const std::vector<real_t>& a,
                                 const std::vector<real_t>& b);

/// In-memory span log plus metric tables. Spans are recorded only while
/// tracing; metrics always. Thread-safe: serve clients record concurrently.
class Recorder {
 public:
  explicit Recorder(bool tracing) : tracing_(tracing) {}

  struct Span {
    std::string name;
    std::string layer;  ///< library layer the call enters, or "bench"
    double t0 = 0.0;
    double t1 = 0.0;
    int parent = -1;
    std::int64_t request = -1;  ///< serve: shared by submit and wait spans
  };

  /// RAII span; nested spans on one thread record their parent.
  class Scope {
   public:
    Scope(Recorder& rec, const char* name, const char* layer,
          std::int64_t request = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder* rec_;
    int id_ = -1;
  };

  [[nodiscard]] bool tracing() const noexcept { return tracing_; }
  void e2e(const std::string& name, double value, const std::string& unit);
  /// Per-layer value; its unit and tag come from the table in main.cpp.
  void layer(const std::string& name, double value);

  [[nodiscard]] const std::map<std::string, Metric>& e2e() const {
    return e2e_;
  }
  [[nodiscard]] const std::map<std::string, double>& layers() const {
    return layers_;
  }
  [[nodiscard]] std::vector<Span> spans() const;
  /// Per-layer self time: span duration minus the part its children cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

 private:
  int open(const char* name, const char* layer, std::int64_t request);
  void close(int id);

  bool tracing_;
  mutable std::mutex m_;
  std::vector<Span> spans_;
  std::map<std::string, Metric> e2e_;
  std::map<std::string, double> layers_;
};

/// Counts of one run: operations attempted and failed, plus the checker
/// self-test (a deliberately perturbed output must be flagged).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool selfcheck_ok = true;
  std::vector<std::string> notes;  ///< first few failure reasons
  void fail(const std::string& why);
};

// ---------------------------------------------------------------------------
// In-process probes (probes.cpp)
// ---------------------------------------------------------------------------

struct CacheInfo {
  std::size_t l2_bytes = 0;   ///< per core
  std::size_t llc_bytes = 0;  ///< last level, shared
};
[[nodiscard]] CacheInfo cache_info();

struct TriadResult {
  double gbps = 0.0;
  std::size_t array_bytes = 0;  ///< each of the three arrays
};
/// STREAM triad a = b + s*c over the library's thread pool, each array at
/// least 4x the last-level cache; best of a few passes.
[[nodiscard]] TriadResult stream_triad(const CacheInfo& caches);

/// Peak resident set (VmHWM) in MiB and the live thread count, from
/// /proc/self/status.
[[nodiscard]] double peak_rss_mib();
[[nodiscard]] int live_threads();

/// Samples live_threads() every few milliseconds on its own thread while
/// alive; peak() excludes the sampler itself.
class ThreadSampler {
 public:
  ThreadSampler();
  ~ThreadSampler();
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;
  [[nodiscard]] int peak() const { return peak_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  std::thread worker_;  // last: it reads the members above
};

/// Provenance string: ISA, thread settings, caches, perf availability.
[[nodiscard]] std::string provenance_json(const Args& args,
                                          const CacheInfo& caches);

/// Seeded rate jitter: every rate of `net` multiplied by exp(u * spread),
/// u ~ Uniform[-1, 1).
[[nodiscard]] cmesolve::core::ReactionNetwork jitter_rates(
    const cmesolve::core::ReactionNetwork& net, std::uint64_t seed,
    double spread);

/// Layer probes shared by every workload on its main network: enumeration,
/// stencil compile, box geometry, the single-RHS stencil sweep, the
/// assembled CSR SpMV inside an InlineRegion, and the wire parse of the
/// network as a request.
void probe_network_layers(Recorder& rec,
                          const cmesolve::core::ReactionNetwork& net,
                          const cmesolve::core::State& initial,
                          double triad_gbps);

// ---------------------------------------------------------------------------
// Workloads. Each records its end-to-end metrics into `rec`, and when
// rec.tracing() also its workload-specific per-layer metrics.
// ---------------------------------------------------------------------------
void run_landscape(const Args& args, Recorder& rec, Outcome& out,
                   double triad_gbps);
void run_sweep(const Args& args, Recorder& rec, Outcome& out,
               double triad_gbps);
void run_serve(const Args& args, Recorder& rec, Outcome& out,
               double triad_gbps);
void run_transient(const Args& args, Recorder& rec, Outcome& out,
                   double triad_gbps);

/// Records the end-to-end metrics every workload reports: medians of the
/// set-up and solve times (seconds), p50/p95 of the latency samples (ms),
/// the throughput, and the peak resident set. Workloads read the peak after
/// their second answer: later answers repeat the same work, and with
/// glibc's adaptive mmap threshold the high-water mark otherwise drifted
/// with the number of repeats (55.6 vs 59.1 MiB for 4 vs 5 answers).
void record_answer_metrics(Recorder& rec, const std::vector<double>& setup_s,
                           const std::vector<double>& solve_s,
                           const std::vector<double>& latency_ms,
                           double throughput_rps, double peak_rss);

}  // namespace perfbench
