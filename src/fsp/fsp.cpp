#include "fsp/fsp.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "core/stencil.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "solver/operators.hpp"
#include "solver/stencil_operator.hpp"
#include "solver/vector_ops.hpp"
#include "util/aligned_vector.hpp"

namespace cmesolve::fsp {

namespace {

/// Inner solve of one round's truncated system A p = 0. `p` carries the
/// warm start in and the (L1-normalized, non-negative) landscape out.
std::pair<std::uint64_t, solver::StopReason> solve_round(
    const sparse::Csr& a, std::vector<real_t>& p, const FspOptions& opt,
    index_t return_state) {
  if (opt.solver == InnerSolver::kGmres) {
    // Nonsingular-ized form: one balance row replaced by Σ p_i = 1.
    const auto apply = solver::steady_state_operator(a, return_state);
    const auto b = solver::steady_state_rhs(a.nrows, return_state);
    const auto r = solver::gmres_solve(apply, a.nrows, b, p, opt.gmres);
    // GMRES does not preserve positivity; clamp the (tolerance-sized)
    // negative excursions before renormalizing.
    for (real_t& v : p) v = std::max(v, 0.0);
    solver::normalize_l1(p);
    return {r.iterations, r.converged ? solver::StopReason::kConverged
                                      : solver::StopReason::kMaxIterations};
  }
  const solver::CsrDiaOperator op(a);
  const auto r = solver::jacobi_solve(op, a.inf_norm(), p, opt.jacobi);
  return {r.iterations, r.reason};
}

/// Outcome of one round's inner solve, with the per-member outflow the
/// flux bookkeeping needs regardless of which path produced it.
struct RoundSolve {
  std::uint64_t iterations = 0;
  solver::StopReason stop = solver::StopReason::kMaxIterations;
  std::vector<real_t> outflow;  ///< per-member out-of-set rate γ_j
  bool matrix_free = false;
};

/// Picks the matrix-free masked-stencil path for eligible kJacobi rounds
/// and the assembled-CSR path otherwise. The stencil table is compiled
/// lazily on the first eligible round; any compile/mapping failure (a
/// network the stencil machinery cannot express, or a member outside the
/// anchor's conservation box) disables the matrix-free path permanently —
/// the assembled path is always a correct fallback.
class RoundSolver {
 public:
  RoundSolver(const core::ReactionNetwork& network, const core::State& anchor,
              const FspOptions& opt)
      : network_(network),
        anchor_(anchor),
        opt_(opt),
        enabled_(opt.matrix_free && opt.solver == InnerSolver::kJacobi) {}

  RoundSolve solve(const core::ProjectedRateMatrix& matrix,
                   const core::DynamicStateSpace& space, index_t ret,
                   std::vector<real_t>& p, FspRound& round) {
    const index_t n = space.size();
    RoundSolve out;
    if (enabled_) {
      if (std::unique_ptr<solver::MaskedStencilOperator> op =
              make_operator(space, ret)) {
        // Jacobi iterate over the box: 64-byte aligned like the rest of the
        // solver state so the SIMD kernels start on a vector boundary.
        util::aligned_vector<real_t> pbox(static_cast<std::size_t>(op->nrows()));
        op->scatter_from_members(p, pbox);
        const auto r =
            solver::jacobi_solve(*op, op->inf_norm(), pbox, opt_.jacobi);
        op->gather_to_members(pbox, p);
        solver::normalize_l1(p);
        out.iterations = r.iterations;
        out.stop = r.reason;
        out.outflow.resize(static_cast<std::size_t>(n));
        for (index_t j = 0; j < n; ++j) {
          out.outflow[static_cast<std::size_t>(j)] = op->outflow(j);
        }
        out.matrix_free = true;
        obs::count("fsp.round.matrix_free");
        if (opt_.device != nullptr) {
          // The Table IV economics of this round: one simulated stencil
          // SpMV over the box (the kernel a matrix-free GPU sweep runs).
          util::aligned_vector<real_t> xin(pbox.begin(), pbox.end());
          util::aligned_vector<real_t> xout(pbox.size());
          const auto sweep = gpusim::simulate_spmv_stencil(
              *opt_.device, *stencil_, xin, xout, opt_.sim);
          round.sim_sweep_seconds = sweep.seconds;
          round.sim_sweep_gflops = sweep.gflops;
        }
        return out;
      }
    }
    auto assembly = matrix.assemble(space, ret);
    const auto [iters, stop] = solve_round(assembly.a, p, opt_, ret);
    out.iterations = iters;
    out.stop = stop;
    out.outflow = std::move(assembly.outflow);
    if (opt_.device != nullptr) {
      // One simulated GPU Jacobi sweep on the warped ELL+DIA layout.
      const solver::WarpedEllDiaOperator wop(assembly.a);
      util::aligned_vector<real_t> xin(p.begin(), p.end());
      util::aligned_vector<real_t> xout(p.size());
      const auto sweep = gpusim::simulate_jacobi_sweep(
          *opt_.device, wop.gpu_hybrid(), xin, xout, opt_.sim);
      round.sim_sweep_seconds = sweep.seconds;
      round.sim_sweep_gflops = sweep.gflops;
    }
    return out;
  }

 private:
  /// nullptr when this round must use the assembled path.
  std::unique_ptr<solver::MaskedStencilOperator> make_operator(
      const core::DynamicStateSpace& space, index_t ret) {
    if (stencil_ == nullptr && !failed_) {
      try {
        stencil_ = std::make_unique<core::StencilTable>(network_, anchor_);
      } catch (const std::exception&) {
        failed_ = true;
      }
    }
    if (stencil_ == nullptr) return nullptr;
    // A sparse member set inside a huge box would sweep mostly masked
    // rows; keep the assembled path until the set fills the box enough.
    if (static_cast<real_t>(stencil_->box_rows()) >
        opt_.matrix_free_box_ratio * static_cast<real_t>(space.size())) {
      return nullptr;
    }
    try {
      return std::make_unique<solver::MaskedStencilOperator>(*stencil_, space,
                                                             ret);
    } catch (const std::logic_error&) {
      failed_ = true;
      stencil_.reset();
      return nullptr;
    }
  }

  const core::ReactionNetwork& network_;
  const core::State& anchor_;
  const FspOptions& opt_;
  bool enabled_;
  bool failed_ = false;
  std::unique_ptr<core::StencilTable> stencil_;
};

/// One round's growth step: add the boundary candidates `additions` (keys
/// from out_of_set_successors) up to the state cap, then, while the round
/// has added fewer than min_growth * n states (thin boundaries — quasi-1D
/// lattices add a handful of states per layer), keep expanding the
/// successors of the just-added states breadth-first. Each layer continues
/// along the probability gradient because only descendants of the
/// candidates are in it. Returns the member count before the step.
index_t grow(core::DynamicStateSpace& space,
             const std::vector<core::StateKey>& additions, index_t n,
             std::size_t max_states, real_t min_growth) {
  const index_t before_add = space.size();
  for (const core::StateKey& key : additions) {
    if (static_cast<std::size_t>(space.size()) >= max_states) break;
    space.add(key);
  }
  if (min_growth > 0.0) {
    space.grow_bfs(
        std::min(max_states,
                 static_cast<std::size_t>(before_add) +
                     static_cast<std::size_t>(
                         std::ceil(min_growth * static_cast<real_t>(n)))),
        before_add);
  }
  return before_add;
}

}  // namespace

FspResult solve_adaptive(const core::ReactionNetwork& network,
                         const core::State& initial, const FspOptions& opt) {
  CMESOLVE_TRACE_SPAN("fsp.solve_adaptive");
  if (opt.seed_states == 0 || opt.max_states == 0 || opt.max_rounds <= 0) {
    throw std::invalid_argument("solve_adaptive: empty budget");
  }

  core::DynamicStateSpace space(network, initial);
  space.grow_bfs(std::min(opt.seed_states, opt.max_states));
  core::ProjectedRateMatrix matrix(network);
  RoundSolver round_solver(network, initial, opt);

  std::vector<real_t> p;
  std::vector<FspRound> rounds;
  std::uint64_t total_iters = 0;
  real_t bound = std::numeric_limits<real_t>::infinity();
  bool converged = false;

  for (int round = 1; round <= opt.max_rounds; ++round) {
    CMESOLVE_TRACE_SPAN("fsp.round");
    const index_t n = space.size();
    const index_t ret = space.find(initial);

    matrix.extend(space);

    if (p.empty()) {
      p.assign(static_cast<std::size_t>(n), 0.0);
      solver::fill_uniform(p);
    }

    FspRound r;
    r.round = round;
    r.states = n;

    const RoundSolve rs = round_solver.solve(matrix, space, ret, p, r);
    total_iters += rs.iterations;

    // Stationary embedded-chain sink mass: the probability that the next
    // jump leaves the projection. Serial sums keep the value bit-identical
    // at any thread count.
    real_t sink_flux = 0.0;
    real_t total_flux = 0.0;
    index_t boundary = 0;
    for (index_t j = 0; j < n; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      sink_flux += p[ju] * rs.outflow[ju];
      total_flux += p[ju] * matrix.total_rate(j);
      if (rs.outflow[ju] > 0.0) ++boundary;
    }
    bound = total_flux > 0.0 ? sink_flux / total_flux : 0.0;

    r.boundary = boundary;
    r.outflow_bound = bound;
    r.solver_iterations = rs.iterations;
    r.stop = rs.stop;
    r.matrix_free = rs.matrix_free;

    CMESOLVE_TRACE_COUNTER("fsp.outflow_bound", bound);
    CMESOLVE_TRACE_COUNTER("fsp.states", static_cast<real_t>(n));
    obs::observe("fsp.round.outflow_bound", bound);
    obs::observe("fsp.round.states", static_cast<real_t>(n));
    obs::observe("fsp.round.solver_iterations",
                 static_cast<real_t>(rs.iterations));
    // The adaptive loop's own trajectory: sink-mass bound and projection
    // size per round, on the round axis.
    obs::flight("fsp.sink_mass", obs::FlightKind::kFspRound,
                static_cast<std::uint64_t>(round), bound);
    obs::flight("fsp.states", obs::FlightKind::kFspStates,
                static_cast<std::uint64_t>(round), static_cast<double>(n));

    if (bound <= opt.tol) {
      converged = true;
      rounds.push_back(r);
      break;
    }
    if (round == opt.max_rounds ||
        static_cast<std::size_t>(n) >= opt.max_states) {
      rounds.push_back(r);
      break;
    }

    // --- expansion selection (pre-compaction indices) ----------------------
    // Boundary states carrying the top expansion_quantile share of the
    // stationary outflow flux; ties and ordering are broken by index so the
    // adapted set is deterministic.
    struct Flux {
      index_t j;
      real_t flux;
    };
    std::vector<Flux> flux;
    for (index_t j = 0; j < n; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      if (rs.outflow[ju] > 0.0) {
        flux.push_back({j, p[ju] * rs.outflow[ju]});
      }
    }
    std::sort(flux.begin(), flux.end(), [](const Flux& a, const Flux& b) {
      if (a.flux != b.flux) return a.flux > b.flux;
      return a.j < b.j;
    });
    std::vector<char> expand_src(static_cast<std::size_t>(n), 0);
    {
      const real_t target = opt.expansion_quantile * sink_flux;
      real_t cum = 0.0;
      for (const Flux& f : flux) {
        expand_src[static_cast<std::size_t>(f.j)] = 1;
        cum += f.flux;
        if (cum >= target && f.flux > 0.0) break;
      }
      // Zero-flux boundary (warm-started zeros that never lifted): expand
      // the whole boundary rather than stalling.
      if (sink_flux <= 0.0) {
        for (const Flux& f : flux) expand_src[static_cast<std::size_t>(f.j)] = 1;
      }
    }

    // Successor collection must precede compaction: stencil indices and the
    // membership view are both pre-compaction here. Members about to be
    // pruned do NOT reappear as successors (they are still members now) —
    // which is exactly the anti-oscillation behaviour we want.
    std::vector<core::StateKey> additions;
    for (index_t j = 0; j < n; ++j) {
      if (expand_src[static_cast<std::size_t>(j)]) {
        matrix.out_of_set_successors(space, j, additions);
      }
    }

    // --- quantile pruning --------------------------------------------------
    std::vector<char> keep(static_cast<std::size_t>(n), 1);
    index_t pruned = 0;
    if (opt.prune_quantile > 0.0 &&
        static_cast<std::size_t>(n) >= opt.min_states_to_prune) {
      std::vector<index_t> order(static_cast<std::size_t>(n));
      std::iota(order.begin(), order.end(), index_t{0});
      std::sort(order.begin(), order.end(), [&p](index_t a, index_t b) {
        const real_t pa = p[static_cast<std::size_t>(a)];
        const real_t pb = p[static_cast<std::size_t>(b)];
        if (pa != pb) return pa < pb;
        return a < b;
      });
      real_t cum = 0.0;
      for (const index_t j : order) {
        const auto ju = static_cast<std::size_t>(j);
        if (j == ret || expand_src[ju]) continue;  // never prune these
        if (cum + p[ju] > opt.prune_quantile) break;
        keep[ju] = 0;
        cum += p[ju];
        ++pruned;
      }
    }

    std::vector<index_t> remap;
    if (pruned > 0) {
      remap = space.compact(keep);
      matrix.compact(remap);
    } else {
      remap.resize(static_cast<std::size_t>(n));
      std::iota(remap.begin(), remap.end(), index_t{0});
    }

    // --- apply expansion ---------------------------------------------------
    const index_t before_add = grow(space, additions, n, opt.max_states,
                                    opt.min_growth);
    const index_t added = space.size() - before_add;
    r.added = added;
    r.pruned = pruned;
    rounds.push_back(r);
    obs::observe("fsp.round.states_added", static_cast<real_t>(added));
    obs::observe("fsp.round.states_pruned", static_cast<real_t>(pruned));

    if (added == 0 && pruned == 0) {
      // Nothing left to adapt (cap reached or boundary closed): the bound
      // cannot improve, stop unconverged.
      break;
    }

    // Warm start for the next round: previous landscape through the
    // renumbering, appended states seeded with a small uniform mass so the
    // boundary flux is never spuriously zero.
    std::vector<real_t> next(static_cast<std::size_t>(space.size()));
    const real_t fill =
        1.0e-3 / static_cast<real_t>(space.size());
    solver::warm_restart(p, remap, next, fill);
    p = std::move(next);
  }

  // Post-convergence trim: growth overshoots (layered expansion is
  // reachability-driven, not mass-driven), so the converged set usually
  // carries a tail of negligible-mass states. Drop the prune_quantile
  // cumulative-mass tail, re-solve once, and keep the trimmed projection
  // when its bound still meets the tolerance.
  if (converged && opt.prune_quantile > 0.0 &&
      static_cast<std::size_t>(space.size()) >= opt.min_states_to_prune) {
    const index_t n = space.size();
    const index_t ret0 = space.find(initial);
    std::vector<index_t> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), index_t{0});
    std::sort(order.begin(), order.end(), [&p](index_t a, index_t b) {
      const real_t pa = p[static_cast<std::size_t>(a)];
      const real_t pb = p[static_cast<std::size_t>(b)];
      if (pa != pb) return pa < pb;
      return a < b;
    });
    std::vector<char> keep(static_cast<std::size_t>(n), 1);
    index_t pruned = 0;
    real_t cum = 0.0;
    for (const index_t j : order) {
      const auto ju = static_cast<std::size_t>(j);
      if (j == ret0) continue;
      if (cum + p[ju] > opt.prune_quantile) break;
      keep[ju] = 0;
      cum += p[ju];
      ++pruned;
    }
    if (pruned > 0) {
      CMESOLVE_TRACE_SPAN("fsp.trim");
      const auto remap = space.compact(keep);
      matrix.compact(remap);
      std::vector<real_t> next(static_cast<std::size_t>(space.size()));
      solver::warm_restart(p, remap, next, 0.0);
      p = std::move(next);
      const index_t ret = space.find(initial);
      FspRound r;
      r.round = static_cast<int>(rounds.size()) + 1;
      r.states = space.size();
      r.pruned = pruned;
      const RoundSolve rs = round_solver.solve(matrix, space, ret, p, r);
      total_iters += rs.iterations;
      real_t sink_flux = 0.0;
      real_t total_flux = 0.0;
      index_t boundary = 0;
      for (index_t j = 0; j < space.size(); ++j) {
        const auto ju = static_cast<std::size_t>(j);
        sink_flux += p[ju] * rs.outflow[ju];
        total_flux += p[ju] * matrix.total_rate(j);
        if (rs.outflow[ju] > 0.0) ++boundary;
      }
      bound = total_flux > 0.0 ? sink_flux / total_flux : 0.0;
      converged = bound <= opt.tol;
      r.boundary = boundary;
      r.outflow_bound = bound;
      r.solver_iterations = rs.iterations;
      r.stop = rs.stop;
      r.matrix_free = rs.matrix_free;
      rounds.push_back(r);
      obs::observe("fsp.round.states_pruned", static_cast<real_t>(pruned));
    }
  }

  obs::flight("fsp.stop", obs::FlightKind::kStop, rounds.size(),
              converged ? 1.0 : 0.0);
  if (!converged && obs::flight_enabled()) {
    obs::FlightRecorder::instance().mark_post_mortem("fsp: bound not met");
  }
  obs::count("fsp.solves");
  obs::gauge("fsp.rounds", static_cast<real_t>(rounds.size()));
  obs::gauge("fsp.states.final", static_cast<real_t>(space.size()));
  obs::gauge("fsp.outflow_bound", bound);
  obs::gauge("fsp.converged", converged ? 1.0 : 0.0);
  obs::gauge("fsp.solver.iterations.total", static_cast<real_t>(total_iters));

  return FspResult{std::move(space), std::move(p),     bound,
                   converged,        std::move(rounds), total_iters};
}

TransientFspResult solve_transient(const core::ReactionNetwork& network,
                                   const core::State& initial,
                                   std::span<const real_t> t_grid,
                                   const TransientFspOptions& opt) {
  CMESOLVE_TRACE_SPAN("fsp.solve_transient");
  if (opt.max_rounds < 1) {
    throw std::invalid_argument("solve_transient: max_rounds must be >= 1");
  }
  real_t prev_t = 0.0;
  for (const real_t t : t_grid) {
    if (t < prev_t) {
      throw std::invalid_argument(
          "solve_transient: t_grid must be ascending and non-negative");
    }
    prev_t = t;
  }

  core::DynamicStateSpace space(network, initial);
  space.grow_bfs(std::min(opt.seed_states, opt.max_states));
  core::ProjectedRateMatrix matrix(network);
  matrix.extend(space);

  // The lost mass IS the error bound: never wash it out.
  solver::TransientOptions uopt = opt.uniformization;
  uopt.renormalize = false;
  solver::KrylovExpmOptions kopt = opt.krylov;
  kopt.renormalize = false;

  const index_t root = space.find(initial);
  if (root < 0) {
    throw std::logic_error("solve_transient: initial state not a member");
  }
  // The accepted vector at the last checkpoint reached (t = 0 at first)
  // over the current members. Members are only ever appended, so growth
  // pads it with zeros.
  std::vector<real_t> p(static_cast<std::size_t>(space.size()), 0.0);
  p[static_cast<std::size_t>(root)] = 1.0;
  const real_t t_final = t_grid.empty() ? 0.0 : t_grid.back();

  std::vector<std::vector<real_t>> marginals(t_grid.size());
  std::vector<real_t> sinks(t_grid.size(),
                            std::numeric_limits<real_t>::infinity());
  std::vector<TransientFspRound> rounds;
  std::uint64_t total_matvecs = 0;
  std::size_t s = 0;  // next grid point to reach

  // One round per member set: walk the grid from the last accepted
  // checkpoint until a segment's sink mass passes its share of tol, then
  // grow the set and repeat only that segment.
  for (int round = 1;; ++round) {
    const index_t n = space.size();
    const auto rs = matrix.assemble_absorbing(space);
    const solver::CsrOperator op(rs.a);
    p.resize(static_cast<std::size_t>(n), 0.0);
    // Exactly when the growth step below adds a state.
    const bool can_grow =
        round < opt.max_rounds &&
        static_cast<std::size_t>(n) < opt.max_states &&
        std::any_of(rs.outflow.begin(), rs.outflow.end(),
                    [](real_t g) { return g > 0.0; });

    TransientFspRound r{round, n, 0.0, 0, 0};
    bool grow_set = false;
    // One attempt buffer per member set, swapped with p on acceptance.
    // Allocating it per attempt, or moving it into p and copying the
    // marginal, fragmented the heap enough to raise the transient
    // benchmark's peak RSS by 2-5 MiB.
    std::vector<real_t> q;
    while (s < t_grid.size()) {
      q.assign(p.begin(), p.end());
      const real_t dt = t_grid[s] - (s > 0 ? t_grid[s - 1] : 0.0);
      bool cut = false;
      if (opt.engine == TransientEngine::kUniformization) {
        const auto e = solver::transient_solve(op, dt, std::span<real_t>(q),
                                               uopt);
        r.matvecs += e.matvecs;
        cut = e.truncated_early;
      } else {
        const auto e = solver::krylov_expm_solve(op, dt,
                                                 std::span<real_t>(q), kopt);
        r.matvecs += e.matvecs;
        cut = e.truncated_early || e.tol_not_met;
      }
      if (cut) {
        // q is not P(t_grid[s]): no bound exists, and a larger set would
        // only raise the cost of the same budget. The grid points from s on
        // keep their empty marginal and infinite sink.
        r.sink_mass = std::numeric_limits<real_t>::infinity();
        break;
      }
      // In exact arithmetic the sink mass never falls; hold it where an
      // engine's rounding (Krylov's local error) would let it.
      r.sink_mass =
          std::max(s > 0 ? sinks[s - 1] : 0.0, 1.0 - solver::norm_l1(q));
      const real_t share =
          t_final > 0.0 ? opt.tol * (t_grid[s] / t_final) : opt.tol;
      if (r.sink_mass > share && can_grow) {
        grow_set = true;
        break;
      }
      marginals[s] = q;
      std::swap(p, q);
      sinks[s] = r.sink_mass;
      ++r.checkpoints;
      ++s;
    }
    total_matvecs += r.matvecs;
    rounds.push_back(r);
    obs::flight("fsp.transient.sink_mass", obs::FlightKind::kFspRound,
                static_cast<std::uint64_t>(round), r.sink_mass);
    obs::flight("fsp.transient.states", obs::FlightKind::kFspStates,
                static_cast<std::uint64_t>(round), static_cast<real_t>(n));
    if (!grow_set) break;

    // Expand every leaking boundary state's out-of-set successors, then
    // further reachability layers up to the growth floor.
    std::vector<core::StateKey> additions;
    for (index_t j = 0; j < n; ++j) {
      if (rs.outflow[static_cast<std::size_t>(j)] > 0.0) {
        matrix.out_of_set_successors(space, j, additions);
      }
    }
    grow(space, additions, n, opt.max_states, opt.min_growth);
    matrix.extend(space);
  }

  // Marginals index by member of the final set; members added after a
  // checkpoint held no mass there.
  for (std::vector<real_t>& m : marginals) {
    if (!m.empty()) m.resize(static_cast<std::size_t>(space.size()), 0.0);
  }
  // Only an engine cut leaves grid points unreached. The sink mass never
  // falls along the grid, so its final value bounds every marginal.
  const bool truncated = s < t_grid.size();
  const real_t bound = t_grid.empty() ? 0.0 : sinks.back();
  const bool converged = bound <= opt.tol;

  obs::flight("fsp.transient.stop", obs::FlightKind::kStop, rounds.size(),
              converged ? 1.0 : 0.0);
  if (!converged && obs::flight_enabled()) {
    obs::FlightRecorder::instance().mark_post_mortem(
        truncated ? "fsp transient: engine budget cut the propagation"
                  : "fsp transient: bound not met");
  }
  obs::count("fsp.transient.solves");
  obs::gauge("fsp.transient.rounds", static_cast<real_t>(rounds.size()));
  obs::gauge("fsp.transient.states.final", static_cast<real_t>(space.size()));
  obs::gauge("fsp.transient.error_bound", bound);
  obs::gauge("fsp.transient.converged", converged ? 1.0 : 0.0);
  obs::gauge("fsp.transient.truncated", truncated ? 1.0 : 0.0);
  obs::gauge("fsp.transient.matvecs.total",
             static_cast<real_t>(total_matvecs));

  return TransientFspResult{std::move(space),  std::move(marginals),
                            std::move(sinks),  bound,
                            converged,         truncated,
                            std::move(rounds), total_matvecs};
}

real_t l1_distance_to_reference(const FspResult& fsp,
                                const core::StateSpace& reference,
                                std::span<const real_t> p_ref) {
  if (p_ref.size() != static_cast<std::size_t>(reference.size())) {
    throw std::invalid_argument("l1_distance_to_reference: p_ref size");
  }
  real_t l1 = 0.0;
  for (index_t i = 0; i < reference.size(); ++i) {
    const index_t j = fsp.space.find(reference.state(i));
    const real_t pf = j >= 0 ? fsp.p[static_cast<std::size_t>(j)] : 0.0;
    l1 += std::abs(p_ref[static_cast<std::size_t>(i)] - pf);
  }
  // FSP members outside the reference enumeration (possible only when the
  // reference itself was truncated) carry their whole mass as error.
  for (index_t j = 0; j < fsp.space.size(); ++j) {
    if (reference.find(fsp.space.state(j)) < 0) {
      l1 += fsp.p[static_cast<std::size_t>(j)];
    }
  }
  return l1;
}

}  // namespace cmesolve::fsp
