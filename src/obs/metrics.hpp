#pragma once
//
// Metric registry: named counters, gauges and histograms that solver and
// simulator code publish into. Histograms reuse util::RunningStats.
//
// Determinism contract (enforced by tests/test_obs.cpp): all *deterministic*
// metrics published by a reference computation are bit-identical across
// CMESOLVE_THREADS=1/2/8. Two rules make this hold:
//  1. Publication happens only from the calling thread, in program order —
//     never from inside pool tasks. Code that must run work inside
//     util::parallel_tasks wraps the task body in SuppressMetrics and
//     publishes aggregated values after the barrier, in a fixed order
//     (see gpusim/multi_gpu.cpp).
//  2. Host wall-clock and anything else that varies run-to-run is published
//     with is_volatile=true; volatile metrics live in a separate report
//     section and are excluded from deterministic_fingerprint().
//
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "util/stats.hpp"

namespace cmesolve::obs {

namespace detail {
extern std::atomic<bool> g_metrics_on;  ///< defined in telemetry.cpp
extern constinit thread_local int t_suppress_depth;
}  // namespace detail

inline bool metrics_enabled() {
  return detail::g_metrics_on.load(std::memory_order_relaxed) &&
         detail::t_suppress_depth == 0;
}

/// Programmatic sink control (env var CMESOLVE_REPORT also enables).
void set_metrics_enabled(bool on);

/// Suppresses metric publication on the current thread for the lifetime of
/// the guard. Used around work dispatched into pool tasks whose per-task
/// publication order would be scheduling-dependent; the dispatcher publishes
/// aggregates afterwards in a deterministic order.
class SuppressMetrics {
 public:
  SuppressMetrics() { ++detail::t_suppress_depth; }
  ~SuppressMetrics() { --detail::t_suppress_depth; }
  SuppressMetrics(const SuppressMetrics&) = delete;
  SuppressMetrics& operator=(const SuppressMetrics&) = delete;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

struct Metric {
  MetricKind kind = MetricKind::kGauge;
  bool is_volatile = false;   ///< excluded from the determinism fingerprint
  std::uint64_t count = 0;    ///< counter value
  double gauge = 0.0;         ///< last value set
  RunningStats stats;         ///< histogram accumulator
};

/// Process-wide registry. Singleton; all methods are thread-safe (one mutex —
/// metrics are published at iteration/launch granularity, not inner loops).
class MetricRegistry {
 public:
  static MetricRegistry& instance();

  void add_counter(const std::string& name, std::uint64_t delta = 1);
  void set_gauge(const std::string& name, double value,
                 bool is_volatile = false);
  void observe(const std::string& name, double value,
               bool is_volatile = false);

  void clear();
  std::size_t size() const;
  bool empty() const;

  /// Snapshot of the registry (sorted by name — std::map).
  std::map<std::string, Metric> snapshot() const;

  /// Canonical text form of every *deterministic* metric, "%.17g" doubles,
  /// sorted by name. Equal strings ⇔ bit-identical registry content.
  std::string deterministic_fingerprint() const;

 private:
  MetricRegistry() = default;
};

// Convenience free functions — all no-ops (after one relaxed load) unless
// metrics are enabled and not suppressed on this thread. The const char*
// overloads exist so string-literal call sites on hot paths construct no
// std::string (and allocate nothing) while disabled.
inline void count(const char* name, std::uint64_t delta = 1) {
  if (metrics_enabled()) MetricRegistry::instance().add_counter(name, delta);
}
inline void count(const std::string& name, std::uint64_t delta = 1) {
  if (metrics_enabled()) MetricRegistry::instance().add_counter(name, delta);
}
inline void gauge(const char* name, double value, bool is_volatile = false) {
  if (metrics_enabled())
    MetricRegistry::instance().set_gauge(name, value, is_volatile);
}
inline void gauge(const std::string& name, double value,
                  bool is_volatile = false) {
  if (metrics_enabled())
    MetricRegistry::instance().set_gauge(name, value, is_volatile);
}
inline void observe(const char* name, double value, bool is_volatile = false) {
  if (metrics_enabled())
    MetricRegistry::instance().observe(name, value, is_volatile);
}
inline void observe(const std::string& name, double value,
                    bool is_volatile = false) {
  if (metrics_enabled())
    MetricRegistry::instance().observe(name, value, is_volatile);
}

}  // namespace cmesolve::obs
