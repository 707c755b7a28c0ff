// Asserts the observability layer's disabled-mode contract: with tracing,
// metrics, the flight recorder and perf counters off (the default),
// instrumentation macros must cost no more than a relaxed atomic load +
// predictable branch, and must record nothing.
//
// Three checks, all hard failures (exit 1):
//   1. Nothing is emitted: after running instrumented work with telemetry
//      disabled, the trace buffer, metric registry and flight ring are
//      empty.
//   2. The per-call cost of disabled span/counter/observe/flight/perf sites
//      stays under a generous nanosecond budget — catching an accidental
//      mutex, string construction or allocation on the fast path, while
//      staying robust to slow CI machines. (The end-to-end "< 2% on
//      bench/table4_jacobi" criterion is checked against the seed binary
//      out-of-tree; this guard catches regressions in-tree at a granularity
//      where the signal is ~100x the threshold, not 2%.)
//   3. A batched-solver-shaped hot loop — per-lane flight sites inside a
//      lane loop, the shape jacobi_solve_lanes' residual check instruments
//      on a K-lane block — also stays under budget, so the recorder cannot
//      tax the widest hot path in the tree.
#include <cstdint>
#include <cstdlib>
#include <iostream>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

using namespace cmesolve;

namespace {

/// One instrumented "iteration": a span, an instant, a counter and a metric
/// observation — the shape of the hot jacobi/kernel instrumentation.
std::uint64_t instrumented_loop(std::uint64_t n) {
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    CMESOLVE_TRACE_SPAN("overhead.iter");
    CMESOLVE_TRACE_INSTANT("overhead.tick");
    CMESOLVE_TRACE_COUNTER("overhead.value", i);
    obs::observe("overhead.value", static_cast<double>(i));
    acc += i ^ (acc >> 7);  // keep the loop from folding away
  }
  return acc;
}

/// Flight-recorder + perf sites: the per-iteration shape of the solver
/// residual-check instrumentation (one flight event + one PerfScope).
std::uint64_t flight_loop(std::uint64_t n) {
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (obs::flight_enabled()) {
      obs::flight("overhead.residual", obs::FlightKind::kResidual, i,
                  static_cast<double>(i));
    }
    obs::PerfScope perf("overhead.window");
    acc += i ^ (acc >> 7);
  }
  return acc;
}

/// Batched hot-loop shape: K per-lane flight sites behind one enable check,
/// the way jacobi_solve_lanes records per-lane residuals plus the active
/// lane count at each residual check of a K-lane block.
constexpr std::uint64_t kLanes = 8;
std::uint64_t batched_flight_loop(std::uint64_t n) {
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (obs::flight_enabled()) {
      for (std::uint64_t q = 0; q < kLanes; ++q) {
        obs::flight("overhead.batch", obs::FlightKind::kResidual, i,
                    static_cast<double>(q), static_cast<std::uint32_t>(q));
      }
      obs::flight("overhead.active", obs::FlightKind::kBatchActive, i,
                  static_cast<double>(kLanes));
    }
    acc += i ^ (acc >> 7);
  }
  return acc;
}

std::uint64_t bare_loop(std::uint64_t n) {
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    acc += i ^ (acc >> 7);
  }
  return acc;
}

double seconds_per_iter(std::uint64_t n, std::uint64_t (*fn)(std::uint64_t)) {
  // Warm up, then take the best of 5 reps (minimum filters scheduler noise).
  volatile std::uint64_t sink = fn(n / 10 + 1);
  double best = 1e9;
  for (int rep = 0; rep < 5; ++rep) {
    WallTimer timer;
    sink = fn(n);
    best = std::min(best, timer.seconds());
  }
  (void)sink;
  return best / static_cast<double>(n);
}

}  // namespace

int main() {
  constexpr std::uint64_t kIters = 4'000'000;
  // 25 ns/site is ~2 orders of magnitude above the expected cost of a
  // relaxed load + branch.
  constexpr double kMaxPerSite = 25e-9;

  // Telemetry must be off for this measurement to mean anything (the driver
  // may export CMESOLVE_TRACE/CMESOLVE_REPORT/CMESOLVE_FLIGHT for other
  // binaries).
  obs::Tracer::instance().disable();
  obs::Tracer::instance().clear();
  obs::set_metrics_enabled(false);
  obs::MetricRegistry::instance().clear();
  obs::FlightRecorder::instance().disable();
  obs::FlightRecorder::instance().clear();
  obs::set_perf_enabled(false);

  const double bare = seconds_per_iter(kIters, bare_loop);
  // 4 disabled trace/metric sites per iteration.
  const double instrumented = seconds_per_iter(kIters, instrumented_loop);
  const double per_site = std::max(0.0, instrumented - bare) / 4.0;
  // 2 disabled sites: one flight check, one PerfScope.
  const double flight = seconds_per_iter(kIters, flight_loop);
  const double per_flight_site = std::max(0.0, flight - bare) / 2.0;
  // The whole disabled batched block folds into ONE enable check — budget
  // it as a single site regardless of K.
  const double batched = seconds_per_iter(kIters, batched_flight_loop);
  const double per_batched_site = std::max(0.0, batched - bare);

  std::cout << "bare loop:           " << bare * 1e9 << " ns/iter\n"
            << "instrumented loop:   " << instrumented * 1e9 << " ns/iter\n"
            << "flight+perf loop:    " << flight * 1e9 << " ns/iter\n"
            << "batched flight loop: " << batched * 1e9 << " ns/iter ("
            << kLanes << " lanes)\n"
            << "disabled overhead: trace/metrics " << per_site * 1e9
            << " ns, flight+perf " << per_flight_site * 1e9
            << " ns, batched block " << per_batched_site * 1e9
            << " ns per site (budget " << kMaxPerSite * 1e9 << " ns)\n";

  bool ok = true;
  if (obs::Tracer::instance().size() != 0) {
    std::cerr << "FAIL: disabled tracer buffered "
              << obs::Tracer::instance().size() << " events\n";
    ok = false;
  }
  if (!obs::MetricRegistry::instance().empty()) {
    std::cerr << "FAIL: disabled registry holds "
              << obs::MetricRegistry::instance().size() << " metrics\n";
    ok = false;
  }
  if (obs::FlightRecorder::instance().size() != 0) {
    std::cerr << "FAIL: disabled flight recorder buffered "
              << obs::FlightRecorder::instance().size() << " events\n";
    ok = false;
  }
  if (per_site > kMaxPerSite) {
    std::cerr << "FAIL: disabled telemetry site costs " << per_site * 1e9
              << " ns (budget " << kMaxPerSite * 1e9 << " ns)\n";
    ok = false;
  }
  if (per_flight_site > kMaxPerSite) {
    std::cerr << "FAIL: disabled flight/perf site costs "
              << per_flight_site * 1e9 << " ns (budget " << kMaxPerSite * 1e9
              << " ns)\n";
    ok = false;
  }
  if (per_batched_site > kMaxPerSite) {
    std::cerr << "FAIL: disabled batched flight block costs "
              << per_batched_site * 1e9 << " ns (budget " << kMaxPerSite * 1e9
              << " ns)\n";
    ok = false;
  }
  std::cout << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}
