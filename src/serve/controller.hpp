#pragma once
//
// CME-as-a-service: the solver daemon's front door (DESIGN.md §15).
//
// A Controller owns a bounded priority queue, a pool of worker threads, and
// a ResultCache. Clients submit scenarios in the canonical .repro.json wire
// format (cmesolve.repro/1 — the same codec the fuzz corpus uses, parsed
// under the hardened kWireJsonLimits) and get back a std::future for the
// response.
//
// Request lifecycle:
//
//   submit -> [parse/admission] -> queued -> [worker] -> exact-cache probe
//          -> (hit: respond) | (miss: build -> cold solve from the uniform
//          vector -> cache insert if converged -> respond)
//
// Status codes:
//   kOk       solve completed (see `reason` for how it stopped) or served
//             from cache
//   kInvalid  rejected at admission: malformed JSON, schema violation, or
//             a limits breach (nesting/size/duplicate keys) — `error` holds
//             the position-annotated parser message
//   kFailed   accepted but the pipeline threw: truncated/degenerate state
//             space, absorbing state (zero diagonal), ...
//   kShed     never solved: the queue was full and the request lost the
//             admission race (or arrived after shutdown began). Shedding
//             prefers the *youngest lowest-priority* queued request — an
//             incoming higher-priority request evicts it and takes its slot.
//
// Determinism: each worker wraps every solve in util::InlineRegion, so the
// numerical pipeline takes its serial (inline) path regardless of
// CMESOLVE_THREADS — results are bit-identical to a single-threaded solve
// by the determinism contract, the shared pool is never driven from two
// threads, and concurrency comes from solving independent requests in
// parallel. Every miss starts from the uniform vector and a hit returns
// the bits of that same cold solve, so a response depends only on its
// request bytes — not on arrival order, worker count or what else is
// cached. Per-solve obs metrics are suppressed (obs::SuppressMetrics);
// the daemon publishes aggregate statistics instead (workload.hpp).
//
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/cache.hpp"
#include "solver/jacobi.hpp"
#include "util/types.hpp"
#include "verify/scenario.hpp"

namespace cmesolve::serve {

enum class Priority : std::uint8_t {
  kBatch = 0,        ///< shed first
  kNormal = 1,
  kInteractive = 2,  ///< may evict queued kBatch/kNormal when full
};

enum class Status : std::uint8_t { kOk, kInvalid, kFailed, kShed };

[[nodiscard]] constexpr const char* to_string(Status s) noexcept {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kInvalid: return "invalid";
    case Status::kFailed: return "failed";
    case Status::kShed: return "shed";
  }
  return "?";
}

[[nodiscard]] constexpr const char* to_string(Priority p) noexcept {
  switch (p) {
    case Priority::kBatch: return "batch";
    case Priority::kNormal: return "normal";
    case Priority::kInteractive: return "interactive";
  }
  return "?";
}

struct SolveResponse {
  Status status = Status::kFailed;
  std::string error;  ///< non-empty for kInvalid/kFailed/kShed

  std::vector<real_t> p;  ///< stationary distribution (kOk only)
  std::size_t states = 0;
  solver::StopReason reason = solver::StopReason::kMaxIterations;
  std::uint64_t iterations = 0;  ///< 0 for a cache hit
  real_t residual = 0.0;  ///< a hit reports the residual of its cold solve

  bool cache_hit = false;
  bool warm_start_applied = false;  ///< always false; perfbench/ reads it

  double queue_seconds = 0.0;  ///< admission -> dequeue (volatile)
  double solve_seconds = 0.0;  ///< dequeue -> response (volatile)
};

struct ServeOptions {
  int workers = 2;  ///< clamped to [1, util::kMaxThreadCap]
  std::size_t queue_capacity = 64;   ///< queued (not in-flight) requests
  std::size_t cache_capacity = 128;  ///< resident ResultCache entries
  /// Test seam: start with the workers parked so a test can fill the queue
  /// deterministically, then call resume().
  bool start_paused = false;
};

/// ServeOptions from CMESOLVE_SERVE_* environment variables: WORKERS,
/// QUEUE_CAP, CACHE_CAP. Each must be a whole decimal integer
/// (util::parse_number; WORKERS positive, the capacities nonnegative); an
/// unset or unparsable value keeps the default.
[[nodiscard]] ServeOptions serve_options_from_env();

/// Aggregate daemon statistics (monotonic counters).
struct ServeStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< responses with status kOk
  std::uint64_t invalid = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;           ///< kShed responses (incl. evictions)
  std::uint64_t queue_evicted = 0;  ///< shed specifically by priority eviction
  std::uint64_t cache_hits = 0;
  std::uint64_t cold_solves = 0;      ///< solves run (every miss is cold)
  std::uint64_t cold_iterations = 0;  ///< Jacobi iterations of those solves
  // Always 0 (every miss solves cold); kept while perfbench/ reads them.
  std::uint64_t warm_starts = 0;
  std::uint64_t warm_iterations = 0;
  CacheStats cache;
};

class Controller {
 public:
  explicit Controller(ServeOptions opt = {});
  ~Controller();
  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Submit a request in wire form. Parsing/validation happens here, on the
  /// caller's thread: malformed input gets an immediately-ready kInvalid
  /// future and never occupies a queue slot.
  [[nodiscard]] std::future<SolveResponse> submit(
      std::string_view repro_json, Priority pri = Priority::kNormal);

  /// Submit an already-parsed scenario (internal clients, tests).
  [[nodiscard]] std::future<SolveResponse> submit(verify::Scenario sc,
                                                  Priority pri =
                                                      Priority::kNormal);

  /// Release workers parked by ServeOptions::start_paused.
  void resume();

  /// Stop accepting, drain the queue, join the workers. Idempotent;
  /// the destructor calls it.
  void shutdown();

  [[nodiscard]] ServeStats stats() const;
  [[nodiscard]] const ServeOptions& options() const noexcept { return opt_; }
  /// Queued (not yet dequeued) requests.
  [[nodiscard]] std::size_t queue_depth() const;

 private:
  struct Request {
    verify::Scenario sc;
    std::string key;  ///< canonical bytes (exact cache key)
    Priority pri = Priority::kNormal;
    std::promise<SolveResponse> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  [[nodiscard]] std::future<SolveResponse> admit(verify::Scenario sc,
                                                 std::string key,
                                                 Priority pri);
  void worker_loop();
  void process(Request& rq);

  ServeOptions opt_;
  ResultCache cache_;

  mutable std::mutex m_;
  std::condition_variable cv_;
  std::deque<Request> queue_[3];  ///< index = Priority
  std::size_t queued_ = 0;
  bool paused_ = false;
  bool accepting_ = true;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> invalid_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> queue_evicted_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cold_solves_{0};
  std::atomic<std::uint64_t> cold_iterations_{0};
};

}  // namespace cmesolve::serve
