#pragma once
//
// Flight recorder: a bounded, allocation-once ring buffer of per-iteration
// solver events. Where the metric registry keeps end-of-run aggregates, the
// recorder keeps the *trajectory* — residual at every check, every
// renormalization, every stagnation strike, every FSP round's sink mass and
// state count, how many batched lanes still iterate at each check — so a
// failed or stagnated solve can be diagnosed post mortem without re-running
// under a debugger.
//
// Determinism contract (same two rules as obs/metrics.hpp, enforced by
// tests/test_obs.cpp): events are recorded only from the calling thread, in
// program order, and carry NO timestamps — they are indexed by solver
// iteration. The recorded stream is therefore bit-identical across
// CMESOLVE_THREADS=1/2/8, and the post-mortem section it dumps into the run
// report (schema cmesolve.run_report/2) diffs clean across thread counts.
//
// Cost model: disabled sites are one relaxed atomic load and a predictable
// branch (no allocation — track names are string literals); enabled sites
// take one mutex and write one 32-byte POD into the preallocated ring. When
// the ring is full the OLDEST events are overwritten (a post mortem wants
// the tail of the flight, not the takeoff) and `overwritten()` counts what
// was lost.
//
// Activation: programmatic (`FlightRecorder::instance().enable()`) or
// `CMESOLVE_FLIGHT=path`, which also streams the buffer as Chrome-trace
// counter tracks at exit (one track per event name, iteration on the time
// axis — loads in Perfetto next to a CMESOLVE_TRACE file).
//
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace cmesolve::obs {

namespace detail {
// Defined in telemetry.cpp (with the other enable flags): any TU touching
// the inline fast path links the env activation (CMESOLVE_FLIGHT) with it.
extern std::atomic<bool> g_flight_on;
/// Shared with metrics.hpp.
extern constinit thread_local int t_suppress_depth;
}  // namespace detail

/// Shares the SuppressMetrics thread-local: code inside pool tasks records
/// nothing, so scheduling can never reorder the stream.
inline bool flight_enabled() {
  return detail::g_flight_on.load(std::memory_order_relaxed) &&
         detail::t_suppress_depth == 0;
}

enum class FlightKind : std::uint8_t {
  kResidual = 0,     ///< normalized residual at a residual check
  kNormalization,    ///< periodic L1 renormalization fired
  kStagnation,       ///< stagnation strike (value = relative residual change)
  kStop,             ///< solve finished (value = StopReason as double)
  kFspRound,         ///< FSP round outflow bound (value = sink-mass bound)
  kFspStates,        ///< FSP round state count
  kBatchActive,      ///< batched lanes still iterating (value = lane count)
  kTransientStep,    ///< uniformization sub-step (value = covered Poisson mass)
  kKrylovStep,       ///< accepted Krylov expm sub-step (value = local error)
};

[[nodiscard]] const char* to_string(FlightKind k) noexcept;

/// One ring slot. POD, no timestamps: `iteration` is the solver's own clock
/// (sweep number, FSP round, ensemble block), `lane` disambiguates batched
/// lanes / ensemble points, `track` is a string literal naming the series.
struct FlightEvent {
  const char* track = "";
  FlightKind kind = FlightKind::kResidual;
  std::uint32_t lane = 0;
  std::uint64_t iteration = 0;
  double value = 0.0;
};

/// Process-wide ring buffer. Singleton; record() is mutex-guarded for safety
/// but the determinism contract expects calls from the calling thread only.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;  // 64k events

  static FlightRecorder& instance();

  /// Allocates the ring (once) and turns the fast-path flag on. Re-enabling
  /// clears the buffer; a different capacity reallocates.
  void enable(std::size_t capacity = kDefaultCapacity);
  void disable();
  void clear();  ///< drop events + post-mortem mark, keep the allocation

  void record(const char* track, FlightKind kind, std::uint64_t iteration,
              double value, std::uint32_t lane = 0);

  /// Flag the buffer as a post mortem: a solver finished without converging.
  /// write_report() embeds the flight section into the run report when set.
  void mark_post_mortem(const char* reason);
  [[nodiscard]] bool post_mortem() const;
  [[nodiscard]] std::string post_mortem_reason() const;

  [[nodiscard]] std::size_t size() const;       ///< events currently held
  [[nodiscard]] std::size_t capacity() const;
  [[nodiscard]] std::uint64_t overwritten() const;  ///< oldest events lost

  /// Events oldest-first (ring unrolled).
  [[nodiscard]] std::vector<FlightEvent> events() const;

  /// Order-sensitive FNV-1a fold over (track, kind, lane, iteration, value).
  /// Equal signatures <=> bit-identical recorded streams.
  [[nodiscard]] std::uint64_t content_signature() const;

  /// Chrome trace_event counter tracks: one 'C' event per slot, named
  /// "<track>" (or "<track>[lane]" for lane > 0), ts = iteration.
  void write_chrome_trace(std::ostream& os) const;
  bool write_file(const std::string& path) const;

 private:
  FlightRecorder() = default;
};

/// Fast-path free function mirroring obs::count/gauge: one relaxed load and
/// a branch when disabled, zero allocation either way.
inline void flight(const char* track, FlightKind kind, std::uint64_t iteration,
                   double value, std::uint32_t lane = 0) {
  if (flight_enabled()) {
    FlightRecorder::instance().record(track, kind, iteration, value, lane);
  }
}

/// Output path for the Chrome-trace export (CMESOLVE_FLIGHT sets this at
/// startup; flush_outputs() writes it). Empty = no file output.
void set_flight_path(const std::string& path);
std::string flight_path();

}  // namespace cmesolve::obs
