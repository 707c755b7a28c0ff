#pragma once
//
// Load harness for the solver daemon (DESIGN.md §15): scenario families,
// Zipf request traces, a closed-loop generator, and run-report publication.
//
// The generator is CLOSED-loop: each simulated client submits one request,
// blocks on the response, optionally "thinks" (exponential delay), and
// repeats. Offered load therefore adapts to service capacity — the daemon
// is driven at saturation without unbounded queue growth, and with one
// client, one worker and zero think time the whole run is a deterministic
// sequential replay (the mode the bench ledger records).
//
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/reaction_network.hpp"
#include "serve/controller.hpp"
#include "util/types.hpp"
#include "verify/scenario.hpp"

namespace cmesolve::serve {

/// Plain-data Scenario from an instantiated network (the reverse of
/// verify::build_network): species names/capacities and reactions are
/// copied out, solver configuration comes from the arguments. The daemon's
/// wire format carries Scenarios, so every model in core/models.hpp becomes
/// servable through this.
[[nodiscard]] verify::Scenario scenario_from_network(
    std::string name, const core::ReactionNetwork& net,
    core::State initial, std::size_t max_states, real_t damping = 0.8);

/// A parameter-sweep family: one base scenario plus rate-jittered variants
/// sharing its topology, capacities, initial state and solver config. Each
/// variant has its own canonical bytes, so each is its own cache entry.
struct SweepFamily {
  std::string name;
  std::vector<verify::Scenario> variants;
};

/// `nvariants` copies of `base`, each with every reaction rate multiplied
/// by exp(u * jitter), u ~ Uniform[-1, 1) from the given seed. Variant 0 is
/// the unmodified base. Deterministic in (base, nvariants, jitter, seed).
[[nodiscard]] SweepFamily make_sweep_family(const verify::Scenario& base,
                                            std::size_t nvariants,
                                            real_t jitter, std::uint64_t seed);

/// The stock load-harness families: a genetic toggle switch (reduced
/// buffers) and the phage-lambda lysis/lysogeny switch, both sized so a
/// cold solve is ~10^2..10^3 Jacobi iterations.
[[nodiscard]] std::vector<SweepFamily> builtin_families(std::size_t nvariants,
                                                        real_t jitter,
                                                        std::uint64_t seed);

/// Zipf(s) popularity ranks in [0, n): rank r is drawn with probability
/// proportional to 1/(r+1)^s. s=0 is uniform; s>1 concentrates on a few
/// hot variants (the cache-hit regime). Deterministic in (n, s, count,
/// seed).
[[nodiscard]] std::vector<std::size_t> zipf_trace(std::size_t n, real_t s,
                                                  std::size_t count,
                                                  std::uint64_t seed);

struct LoadOptions {
  std::size_t requests = 200;  ///< total, across all clients
  int clients = 4;
  real_t zipf_s = 1.1;
  real_t think_seconds = 0.0;  ///< mean exponential think time per client
  std::uint64_t seed = 1;
  /// Fraction of requests submitted at each priority; the remainder is
  /// kNormal. Drawn per-request from the trace RNG.
  real_t interactive_fraction = 0.1;
  real_t batch_fraction = 0.1;
};

struct LoadReport {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t invalid = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cold_solves = 0;  ///< ok responses that were not hits
  std::uint64_t cold_iterations = 0;
  double hit_rate = 0.0;        ///< cache_hits / max(ok, 1)
  double cold_mean_iters = 0.0;
  double p50_ms = 0.0;  ///< end-to-end request latency percentiles
  double p99_ms = 0.0;
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;
};

/// Drive `ctl` with a closed-loop Zipf workload over the families' pooled
/// variants. Blocks until every request has a response.
[[nodiscard]] LoadReport run_closed_loop(Controller& ctl,
                                         const std::vector<SweepFamily>& fams,
                                         const LoadOptions& opt);

/// Publish a LoadReport into the obs registry ("serve.*" namespace) for
/// run-report / bench-ledger emission. With `deterministic` set the
/// count-shaped numbers go into the deterministic section (the bench mode:
/// 1 client, 1 worker, zero think time); otherwise everything is volatile.
/// Latency/throughput numbers are wall-clock and always volatile.
void publish_load_report(const LoadReport& rep, bool deterministic);

}  // namespace cmesolve::serve
