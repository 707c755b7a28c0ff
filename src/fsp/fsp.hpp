#pragma once
//
// Adaptive finite-state-projection (FSP) steady-state pipeline.
//
// The paper's pipeline enumerates a fixed finite-buffer box up front and
// solves A P = 0 on it; the box is either wastefully large or silently
// truncates probability mass. This subsystem sizes the state space itself:
//
//   1. Seed: BFS-enumerate a small member set around the initial state.
//   2. Solve: assemble the projected generator with out-of-set flux
//      redirected to a designated return state (the stationary FSP of
//      Gupta, Mikelson & Khammash, arXiv:1704.07259 — the redirected chain
//      is a proper CTMC, so the existing Jacobi/GMRES solvers apply
//      unchanged), warm-started from the previous round's landscape.
//   3. Bound: the truncation error indicator is the stationary sink mass of
//      the embedded jump chain,
//          bound = Σ_j p_j γ_j / Σ_j p_j λ_j
//      (γ_j = propensity leaving the member set from j, λ_j = total
//      propensity of j): the probability that the chain's next jump would
//      leave the projection.
//   4. Adapt: expand the out-of-set successors of the boundary states that
//      carry the top `expansion_quantile` share of stationary outflow flux;
//      prune members below the `prune_quantile` cumulative-mass threshold
//      (the quantile pruning of Dendukuri & Petzold, arXiv:2504.03070).
//   5. Repeat until the bound drops below `tol`.
//
// Each round can additionally run the round's truncated matrix through the
// simulated GPU Jacobi-sweep kernel (Table IV format), extending the
// paper's format/throughput comparisons to the adaptive workload.
//
#include <cstdint>
#include <limits>
#include <vector>

#include "core/rate_matrix.hpp"
#include "core/reaction_network.hpp"
#include "core/state_space.hpp"
#include "gpusim/device.hpp"
#include "gpusim/kernels.hpp"
#include "solver/gmres.hpp"
#include "solver/jacobi.hpp"
#include "solver/krylov_expm.hpp"
#include "solver/transient.hpp"
#include "util/types.hpp"

namespace cmesolve::fsp {

/// Inner steady-state solver of each round's truncated system.
enum class InnerSolver { kJacobi, kGmres };

struct FspOptions {
  /// Target truncation bound: stationary embedded-chain sink mass.
  real_t tol = 1e-8;
  /// Seed enumeration size (BFS around the initial state).
  std::size_t seed_states = 256;
  /// Hard cap on the member count; the loop stops unconverged at the cap.
  std::size_t max_states = 2'000'000;
  int max_rounds = 64;
  /// Boundary states carrying this share of the stationary outflow flux are
  /// expanded each round (1.0 = expand the whole boundary). Smaller values
  /// grow the space along the probability gradient instead of uniformly.
  real_t expansion_quantile = 0.999;
  /// Minimum per-round growth as a fraction of the pre-round member count.
  /// Flux-selected successors are added first; when they fall short (thin
  /// boundaries on quasi-1D lattices would otherwise grow by a handful of
  /// states per round), further reachability layers are appended from the
  /// newly added states until the round has grown by at least this fraction.
  /// 0 keeps pure single-layer flux expansion.
  real_t min_growth = 0.1;
  /// Cumulative stationary mass dropped by quantile pruning each round
  /// (0 = never prune). States are dropped lowest-probability-first until
  /// the dropped mass would exceed this fraction. A converged run also gets
  /// one final trim + re-solve with the same budget, so the returned set
  /// does not keep the growth overshoot.
  real_t prune_quantile = 0.0;
  /// Pruning is skipped below this member count (early rounds are too
  /// coarse for their landscape to be trusted).
  std::size_t min_states_to_prune = 1024;
  InnerSolver solver = InnerSolver::kJacobi;
  solver::JacobiOptions jacobi;  ///< inner Jacobi configuration
  solver::GmresOptions gmres;    ///< inner GMRES configuration
  /// Run eligible kJacobi inner solves matrix-free through a
  /// solver::MaskedStencilOperator instead of assembling the projected CSR
  /// matrix (the kGmres path always assembles). A round is eligible when the
  /// conservation-reduced capacity box is at most `matrix_free_box_ratio`
  /// times the member count — the masked operator sweeps the whole box, so a
  /// sparse member set inside a huge box would waste the bandwidth the
  /// format exists to save. Networks whose stencil cannot be compiled
  /// (non-constant strides) fall back to the assembled path permanently.
  bool matrix_free = false;
  real_t matrix_free_box_ratio = 8.0;
  /// When non-null, each round's matrix also runs through the simulated
  /// GPU Jacobi-sweep kernel (warped ELL+DIA) on this device, so the
  /// Table-III/IV format economics extend to the FSP workload.
  const gpusim::DeviceSpec* device = nullptr;
  gpusim::SimOptions sim;
};

/// One expansion/prune round, in execution order.
struct FspRound {
  int round = 0;             ///< 1-based
  index_t states = 0;        ///< members solved this round
  index_t added = 0;         ///< members appended after this round's solve
  index_t pruned = 0;        ///< members dropped after this round's solve
  index_t boundary = 0;      ///< members with positive outflow
  real_t outflow_bound = 0.0;
  std::uint64_t solver_iterations = 0;
  solver::StopReason stop = solver::StopReason::kMaxIterations;
  /// This round's inner solve ran matrix-free (masked stencil sweep over
  /// the conservation-reduced box; no assembled CSR).
  bool matrix_free = false;
  /// Simulated cost of one GPU sweep on this round's system: a Jacobi
  /// sweep on the warped ELL+DIA matrix for assembled rounds, the
  /// matrix-free stencil SpMV for matrix-free rounds (0 when
  /// FspOptions::device is null).
  real_t sim_sweep_seconds = 0.0;
  real_t sim_sweep_gflops = 0.0;
};

struct FspResult {
  core::DynamicStateSpace space;  ///< final member set
  std::vector<real_t> p;          ///< stationary landscape over the members
  real_t outflow_bound = std::numeric_limits<real_t>::infinity();
  bool converged = false;         ///< outflow_bound <= tol
  std::vector<FspRound> rounds;
  std::uint64_t total_solver_iterations = 0;
};

/// Run the adaptive pipeline. `network` must outlive the returned result
/// (the member set holds a reference). The network must be irreducible on
/// its reachable space — an absorbing state surfaces as the solvers'
/// zero-diagonal error, exactly as in the fixed-buffer pipeline.
[[nodiscard]] FspResult solve_adaptive(const core::ReactionNetwork& network,
                                       const core::State& initial,
                                       const FspOptions& opt = {});

// ---------------------------------------------------------------------------
// Transient FSP (Munsky & Khammash's original formulation)
// ---------------------------------------------------------------------------
//
// Propagate P(t) = exp(A_J t) P(0) on the truncated generator with
// out-of-set flux DROPPED (core::ProjectedRateMatrix::assemble_absorbing):
// the mass it loses collects in an implicit sink. The loop walks the grid
// once, segment by segment from the last accepted checkpoint. A segment is
// accepted when its sink mass is at most tol * t / t_final, or when the set
// cannot grow; otherwise the member set grows and only that segment is
// repeated. Every accepted vector is a componentwise lower bound of the
// full P(t) whatever the set history, so its sink mass is its L1 error, and
// the sink mass at t_final bounds every marginal (DESIGN.md §17).

/// Propagation engine of the transient FSP loop.
enum class TransientEngine { kUniformization, kKrylov };

struct TransientFspOptions {
  /// Target sink mass at the final grid time (the uniform-in-time bound).
  real_t tol = 1e-8;
  std::size_t seed_states = 256;
  std::size_t max_states = 2'000'000;
  int max_rounds = 32;
  /// Per-round growth floor as a fraction of the pre-round member count:
  /// the boundary's out-of-set successors are added first, then further
  /// reachability layers until the round has grown by at least this much.
  real_t min_growth = 0.5;
  TransientEngine engine = TransientEngine::kUniformization;
  /// Engine configurations. `renormalize` is forced off internally — the
  /// lost mass IS the error bound. Each engine call propagates one segment
  /// attempt, so `uniformization.max_terms` and `krylov.max_matvecs` budget
  /// one attempt, not the whole solve.
  solver::TransientOptions uniformization;
  solver::KrylovExpmOptions krylov;
};

/// One member set of the loop, in execution order.
struct TransientFspRound {
  int round = 0;        ///< 1-based
  index_t states = 0;   ///< members of this set
  /// 1 - ||P(t)||_1 at the last grid point propagated on this set: an
  /// accepted checkpoint, or the failed attempt that grew the set.
  /// Infinity for a truncated attempt.
  real_t sink_mass = 0.0;
  /// Every matvec spent on this set, a failed attempt included.
  std::uint64_t matvecs = 0;
  /// Grid points accepted on this set. Over all rounds they sum to the grid
  /// size unless the solve was truncated.
  std::size_t checkpoints = 0;
};

struct TransientFspResult {
  core::DynamicStateSpace space;  ///< final member set
  /// Per requested grid point: the raw sub-stochastic marginal over the
  /// final member set (NOT renormalized). Members added after grid point i
  /// hold zero there. When `truncated_early` is set, grid points the engine
  /// never reached hold an empty marginal and infinite sink_mass.
  std::vector<std::vector<real_t>> marginals;
  /// Per grid point: 1 - ||marginals[i]||_1, nondecreasing along the grid
  /// (a value an engine's rounding would lower keeps the previous one).
  std::vector<real_t> sink_mass;
  /// Sink mass at the final grid point == the uniform-in-time FSP error
  /// bound for every marginal in `marginals`. Infinity when an engine
  /// budget cut the propagation: a bound derived from an unreached
  /// checkpoint would falsify the FSP guarantee.
  real_t error_bound = std::numeric_limits<real_t>::infinity();
  bool converged = false;  ///< error_bound <= tol
  /// An engine call stopped before its segment's end (uniformization
  /// max_terms, Krylov matvec budget, or an unmeetable Krylov step
  /// tolerance) and ended the solve. No error bound is available.
  bool truncated_early = false;
  std::vector<TransientFspRound> rounds;
  std::uint64_t total_matvecs = 0;
};

/// Run the transient pipeline over an ascending grid of absolute times.
/// `network` must outlive the returned result. Unlike the stationary
/// pipeline, absorbing states are fine — exp(At) needs no invertibility.
[[nodiscard]] TransientFspResult solve_transient(
    const core::ReactionNetwork& network, const core::State& initial,
    std::span<const real_t> t_grid, const TransientFspOptions& opt = {});

/// L1 distance between an FSP landscape and a reference landscape over a
/// full fixed-buffer enumeration of the same network (missing states count
/// with their full reference mass). The golden acceptance metric for
/// bench/fsp_adaptive and tests/test_fsp.
[[nodiscard]] real_t l1_distance_to_reference(const FspResult& fsp,
                                              const core::StateSpace& reference,
                                              std::span<const real_t> p_ref);

}  // namespace cmesolve::fsp
