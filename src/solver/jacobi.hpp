#pragma once
//
// Jacobi iteration for the singular steady-state system A P = 0 (Sec. IV).
//
// Component-wise:  x_i^{k+1} = -(1 / a_ii) * sum_{j != i} a_ij x_j^k
// with the probability-vector invariant maintained by periodic L1
// renormalization, and the paper's two-part stopping criterion:
//
//   converged:  ||r^k||_inf / (||A||_inf * ||x^k||_inf)  <= eps
//   stagnated:  | ||r^{k+1}||_inf - ||r^k||_inf | / ||r^k||_inf <= eps_stag
//
// The residual costs as much as a sweep, so it is evaluated only every
// `check_every` iterations (Sec. IV).
//
#include <algorithm>
#include <atomic>
#include <concepts>
#include <functional>
#include <memory>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "solver/sweep_epilogue.hpp"
#include "solver/vector_ops.hpp"
#include "util/parallel.hpp"
#include "util/simd_kernels.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace cmesolve::solver {

/// Anything that multiplies by the strictly off-diagonal part of A and
/// exposes the dense diagonal.
template <class Op>
concept JacobiOperator = requires(const Op& op, std::span<const real_t> x,
                                  std::span<real_t> y) {
  { op.nrows() } -> std::convertible_to<index_t>;
  { op.diag() } -> std::convertible_to<std::span<const real_t>>;
  { op.offdiag_nnz() } -> std::convertible_to<std::size_t>;
  op.multiply(x, y);
};

struct JacobiOptions {
  real_t eps = 1e-8;                ///< paper's epsilon
  real_t stagnation_eps = 1e-8;     ///< relative residual-change floor
  std::uint64_t max_iterations = 1'000'000;
  std::uint32_t check_every = 100;  ///< residual evaluation period
  std::uint32_t normalize_every = 10;  ///< L1 renormalization period
  /// Consecutive residual checks that must look flat before declaring
  /// stagnation (guards against oscillatory residuals matching by chance).
  std::uint32_t stagnation_patience = 2;
  real_t damping = 1.0;  ///< 1.0 = plain Jacobi; <1 = weighted (extension)
  /// Observer invoked at every residual evaluation with (iteration,
  /// normalized residual) — convergence-history tracing.
  std::function<void(std::uint64_t, real_t)> on_residual;
  /// When > 0, keep a stride-sampled residual history of at most this many
  /// samples in JacobiResult::residual_history: every residual check is
  /// recorded until the buffer fills, then every 2nd surviving sample is
  /// kept and the sampling stride doubles — bounded memory, full-range
  /// coverage. 0 (the default) records nothing.
  std::size_t history_capacity = 0;
};

enum class StopReason : std::uint8_t {
  kConverged,
  kStagnated,
  kMaxIterations,
};

/// One point of the convergence history: the normalized residual as
/// evaluated at iteration `iteration`.
struct ResidualSample {
  std::uint64_t iteration = 0;
  real_t residual = 0.0;
};

struct JacobiResult {
  std::uint64_t iterations = 0;
  real_t residual = 0.0;        ///< last normalized residual
  StopReason reason = StopReason::kMaxIterations;
  real_t seconds = 0.0;         ///< host wall-clock
  std::uint64_t flops = 0;      ///< 2*offdiag_nnz + n per sweep, summed
  real_t gflops = 0.0;          ///< measured host throughput
  /// Stride-sampled convergence history (JacobiOptions::history_capacity).
  std::vector<ResidualSample> residual_history;
  /// Final sampling stride, in residual checks: samples are check numbers
  /// 0, stride, 2*stride, ... (starts at 1, doubles on each compaction).
  std::uint64_t history_stride = 1;
};

[[nodiscard]] constexpr const char* to_string(StopReason r) noexcept {
  switch (r) {
    case StopReason::kConverged: return "converged";
    case StopReason::kStagnated: return "stagnated";
    case StopReason::kMaxIterations: return "max-iterations";
  }
  return "?";
}

namespace detail {

/// Sweep epilogue of one Jacobi iteration, in place on the sweep output y
/// (the next iterate's buffer) of `lanes` interleaved lanes: the plain
/// update y = -y/d, or the damped y = (1-omega) x - (omega y)/d, plus — on
/// renormalize sweeps — each lane's L1 sum of the new iterate in norm_l1's
/// chunk order. Wholly masked stencil tiles (d == -1, y == +0) skip the
/// division: the plain update leaves their +0 untouched and adds nothing
/// to the sum, the damped one is (1-omega) x - c with c = (omega*0)/(-1)
/// formed once (DESIGN.md §16), and `dirty` records whether any of those
/// rows came out other than +0.
struct JacobiUpdate {
  const real_t* x;
  real_t* y;
  const real_t* d;
  real_t omega;
  std::size_t lanes;
  ChunkPartials* l1;  ///< nullptr: no renormalize on this sweep
  std::atomic<bool>* dirty;
  const util::simdk::KernelOps* ko;

  void operator()(std::size_t b, std::size_t e, bool masked) const {
    if (masked && omega == 1.0) return;
    for (std::size_t sb = b; sb < e; sb += kEpilogueBlock) {
      const std::size_t se = std::min(e, sb + kEpilogueBlock);
      const std::size_t o = sb * lanes;
      const std::size_t m = (se - sb) * lanes;
      if (omega == 1.0) {
        ko->jacobi_update(y + o, d + o, m);
      } else if (masked) {
        ko->jacobi_update_masked(y + o, x + o, omega, m);
        if (!dirty->load(std::memory_order_relaxed) &&
            !all_plus_zero(y + o, m)) {
          dirty->store(true, std::memory_order_relaxed);
        }
      } else {
        ko->jacobi_update_damped(y + o, x + o, d + o, omega, m);
      }
      if (l1 != nullptr) l1->add_abs(y, sb, se);
    }
  }
};

/// Residual-check epilogue: r = y + d∘x (the cmul_add of the unfused
/// check, into the work buffer) and each lane's two inf-norms, which are
/// exact in any order — no residual vector is kept.
struct ResidualCheck {
  const real_t* x;
  real_t* y;
  const real_t* d;
  std::size_t lanes;
  ChunkPartials* rmax;
  ChunkPartials* xmax;
  const util::simdk::KernelOps* ko;

  void operator()(std::size_t b, std::size_t e, bool /*masked*/) const {
    ko->cmul_add(y + b * lanes, d + b * lanes, x + b * lanes, (e - b) * lanes);
    rmax->max_abs(y, b, e);
    xmax->max_abs(x, b, e);
  }
};

/// Lane q of v *= 1 / l1.sum(q) wherever that sum is positive: the rescale
/// of normalize_l1, per lane.
inline void scale_lanes(std::span<real_t> v, std::size_t lanes,
                        const ChunkPartials& l1) {
  if (lanes == 1) {
    const real_t s = l1.sum();
    if (s > 0.0) scale(v, 1.0 / s);
    return;
  }
  std::vector<real_t> inv(lanes, 0.0);
  std::vector<std::uint8_t> on(lanes, 0);
  for (std::size_t q = 0; q < lanes; ++q) {
    const real_t s = l1.sum(q);
    if (s > 0.0) {
      inv[q] = 1.0 / s;
      on[q] = 1;
    }
  }
  real_t* p = v.data();
  const util::simdk::KernelOps& ko = util::simdk::kernels();
  util::parallel_for(v.size() / lanes, [&, p](std::size_t b, std::size_t e) {
    ko.lane_scale(p + b * lanes, e - b, lanes, inv.data(), on.data());
  });
}

/// normalize_l1 on each of the interleaved lanes of v; `l1` is scratch.
inline void normalize_each_lane(std::span<real_t> v, std::size_t lanes,
                                ChunkPartials& l1) {
  if (lanes == 1) {
    normalize_l1(v);
    return;
  }
  const std::size_t n = v.size() / lanes;
  l1.reset(n, lanes);
  const auto sum = [&](std::size_t b, std::size_t e, bool /*masked*/) {
    l1.add_abs(v.data(), b, e);
  };
  epilogue_pass(n, SweepEpilogue(sum, {.reduces = true}));
  scale_lanes(v, lanes, l1);
}

/// Control state of one lane of the Jacobi loop.
struct JacobiLane {
  JacobiResult out;
  real_t prev_residual = -1.0;
  std::uint32_t flat_checks = 0;
  std::uint64_t check_number = 0;  ///< residual checks done (history sampling)
  bool running = true;
};

}  // namespace detail

/// The Jacobi control loop over the K lanes of `op`, interleaved
/// point-major: element (row i, lane q) at x[i*K + q], K =
/// a_inf_norms.size(), a_inf_norms[q] = ||A_q||_inf of lane q's FULL
/// matrix (with diagonal). K = 1 is the single-RHS solve. Every lane runs
/// the single-RHS schedule — initial and periodic L1 normalization,
/// residual checks every check_every sweeps, the zero-residual exit,
/// stagnation patience — on its own control state, and stops on its own:
/// its iterate is L1-normalized into out[q] (n entries; out[0] may alias x
/// when K = 1) and the sweep keeps running over its slot with the rest of
/// the block, so a lane's bits never depend on its neighbours. x carries
/// the initial guesses in and is used as one of the two iterate buffers.
/// A lane's `seconds` is the shared wall clock at its stop.
template <JacobiOperator Op>
std::vector<JacobiResult> jacobi_solve_lanes(
    const Op& op, std::span<const real_t> a_inf_norms, std::span<real_t> x,
    std::span<const std::span<real_t>> out, const JacobiOptions& opt) {
  const auto n = static_cast<std::size_t>(op.nrows());
  const std::size_t k = a_inf_norms.size();
  const std::size_t nk = n * k;
  if (k == 0 || x.size() != nk || out.size() != k ||
      std::any_of(out.begin(), out.end(),
                  [n](std::span<real_t> o) { return o.size() != n; })) {
    throw std::invalid_argument("jacobi_solve: x size mismatch");
  }
  const std::span<const real_t> d = op.diag();
  for (std::size_t i = 0; i < nk; ++i) {
    if (d[i] == 0.0) {
      throw std::domain_error(
          "jacobi_solve: zero diagonal (absorbing state in the CME)");
    }
  }

  // The iterate ping-pongs between x and one work buffer: each sweep writes
  // the next iterate into the other buffer through its epilogue, and the
  // buffers swap by pointer. The buffer starts on a 64-byte boundary inside
  // a plain vector: an over-aligned allocation leaves heap fragments that
  // raised the landscape benchmark's peak RSS by 2.5 MB.
  constexpr std::size_t kAlignReals = 64 / sizeof(real_t);
  std::vector<real_t> other(nk + kAlignReals);
  void* head = other.data();
  std::size_t room = other.size() * sizeof(real_t);
  real_t* const work = static_cast<real_t*>(
      std::align(64, nk * sizeof(real_t), head, room));
  ChunkPartials l1;
  ChunkPartials rmax;
  ChunkPartials xmax;
  real_t* cur = x.data();
  real_t* nxt = work;
  // Whether every row a sweep flags masked holds +0 in cur / nxt. The work
  // buffer starts zeroed; x is known once a sweep has written it. While
  // both hold, sweeps skip masked tiles outright: the update maps +0 there
  // to +0 (DESIGN.md §16).
  bool cur_clean = false;
  bool nxt_clean = true;
  const real_t* pd = d.data();
  const real_t omega = opt.damping;
  const util::simdk::KernelOps& ko = util::simdk::kernels();

  CMESOLVE_TRACE_SPAN("jacobi.solve");
  WallTimer timer;
  std::vector<detail::JacobiLane> lanes(k);
  std::size_t running = k;
  const std::uint64_t flops_per_sweep =
      2ULL * op.offdiag_nnz() + static_cast<std::uint64_t>(n);
  // Stride-doubling compaction needs room for at least 2 survivors.
  const std::size_t history_cap =
      opt.history_capacity > 0 ? std::max<std::size_t>(opt.history_capacity, 2)
                               : 0;

  // Lane q stops: its iterate takes one more normalize_l1 in out[q], and
  // nothing reads its slot again.
  const auto stop = [&](std::size_t q) {
    JacobiResult& r = lanes[q].out;
    const std::span<real_t> dst = out[q];
    if (k == 1) {
      if (cur != dst.data()) std::copy(cur, cur + n, dst.data());
    } else {
      for (std::size_t i = 0; i < n; ++i) dst[i] = cur[i * k + q];
    }
    normalize_l1(dst);
    lanes[q].running = false;
    --running;
    r.seconds = timer.seconds();
    r.gflops = r.seconds > 0
                   ? static_cast<real_t>(r.flops) / r.seconds / 1.0e9
                   : 0.0;
    const auto lane = static_cast<std::uint32_t>(q);
    obs::flight("jacobi.stop", obs::FlightKind::kStop, r.iterations,
                static_cast<double>(r.reason), lane);
    if (r.reason != StopReason::kConverged && obs::flight_enabled()) {
      // Arm the post mortem: write_report() dumps the recorded trajectory
      // into the run report's "flight" section for this failed solve.
      obs::FlightRecorder::instance().mark_post_mortem(to_string(r.reason));
    }
  };

  // Residual check `it` of lane q from ||r||_inf and ||x||_inf; true when
  // the lane stops.
  const auto check = [&](std::size_t q, std::uint64_t it, real_t rn,
                         real_t xn) {
    detail::JacobiLane& lane = lanes[q];
    JacobiResult& r = lane.out;
    const auto id = static_cast<std::uint32_t>(q);
    // An exactly-zero residual means the iterate solves A x = 0 to the
    // last bit. It must short-circuit to kConverged here: letting it fall
    // through would divide by a (possibly zero) a_inf_norm * xn product,
    // and a zero prev_residual would turn the relative-change stagnation
    // test below into 0/0.
    const bool exact = rn == 0.0;
    if (exact) {
      r.residual = 0.0;
    } else {
      r.residual = rn / (a_inf_norms[q] * (xn > 0 ? xn : 1.0));
      r.flops += flops_per_sweep;  // the residual costs one extra sweep
    }
    if (k == 1) CMESOLVE_TRACE_COUNTER("jacobi.residual", r.residual);
    obs::observe("jacobi.residual", r.residual);
    obs::flight("jacobi.residual", obs::FlightKind::kResidual, it,
                r.residual, id);
    if (opt.on_residual) opt.on_residual(it, r.residual);
    if (exact) {
      r.reason = StopReason::kConverged;
      return true;
    }
    if (history_cap > 0) {
      if (lane.check_number % r.history_stride == 0) {
        if (r.residual_history.size() >= history_cap) {
          // Full: keep every 2nd surviving sample and double the stride —
          // the buffer stays bounded while spanning the whole solve.
          std::size_t w = 0;
          for (std::size_t h = 0; h < r.residual_history.size(); h += 2) {
            r.residual_history[w++] = r.residual_history[h];
          }
          r.residual_history.resize(w);
          r.history_stride *= 2;
        }
        if (lane.check_number % r.history_stride == 0) {
          r.residual_history.push_back({it, r.residual});
        }
      }
      ++lane.check_number;
    }

    if (r.residual <= opt.eps) {
      r.reason = StopReason::kConverged;
      return true;
    }
    // prev_residual > 0 (not >= 0): the relative-change quotient is
    // undefined at zero, and a zero previous residual would have stopped
    // the solve as converged already.
    if (lane.prev_residual > 0.0 &&
        std::abs(r.residual - lane.prev_residual) / lane.prev_residual <=
            opt.stagnation_eps) {
      obs::flight("jacobi.stagnation", obs::FlightKind::kStagnation, it,
                  std::abs(r.residual - lane.prev_residual) /
                      lane.prev_residual,
                  id);
      if (++lane.flat_checks >= opt.stagnation_patience) {
        r.reason = StopReason::kStagnated;
        return true;
      }
    } else {
      lane.flat_checks = 0;
    }
    lane.prev_residual = r.residual;
    return false;
  };

  detail::normalize_each_lane(x, k, l1);
  for (std::uint64_t it = 1; it <= opt.max_iterations && running > 0; ++it) {
    // One sweep: nxt = -D^{-1} (L+U) cur, optionally damped, formed in the
    // sweep's epilogue; a renormalize sweep also sums |nxt| per lane there.
    // The update is elementwise and the sums keep norm_l1's chunk order
    // (only a summing sweep is split on kReduceChunk boundaries), so the
    // parallel split cannot change the numbers. The damped formula stays a
    // separate kernel — at omega == 1 it is NOT bitwise the undamped one
    // (signed zeros).
    const bool renormalize =
        opt.normalize_every > 0 && it % opt.normalize_every == 0;
    {
      CMESOLVE_TRACE_SPAN("jacobi.sweep");
      if (renormalize) l1.reset(n, k);
      std::atomic<bool> dirty{false};
      const detail::JacobiUpdate update{
          cur, nxt, pd, omega, k, renormalize ? &l1 : nullptr, &dirty, &ko};
      fused_sweep(op, {cur, nk}, {nxt, nk},
                  SweepEpilogue(update,
                                {.reduces = renormalize,
                                 .skip_masked = cur_clean && nxt_clean}));
      nxt_clean = !dirty.load(std::memory_order_relaxed);
      std::swap(cur, nxt);
      std::swap(cur_clean, nxt_clean);
    }
    for (detail::JacobiLane& lane : lanes) {
      if (!lane.running) continue;
      lane.out.iterations = it;
      lane.out.flops += flops_per_sweep;
    }
    const std::span<real_t> xc(cur, nk);

    if (renormalize) {
      CMESOLVE_TRACE_INSTANT("jacobi.renormalize");
      obs::count("jacobi.renormalizations");
      for (std::size_t q = 0; q < k; ++q) {
        // The L1 drift since the last renormalization.
        if (lanes[q].running) {
          obs::flight("jacobi.l1_drift", obs::FlightKind::kNormalization, it,
                      l1.sum(q), static_cast<std::uint32_t>(q));
        }
      }
      detail::scale_lanes(xc, k, l1);
    }

    if (it % opt.check_every == 0 || it == opt.max_iterations) {
      CMESOLVE_TRACE_SPAN("jacobi.residual_check");
      detail::normalize_each_lane(xc, k, l1);
      // r = A x = (L+U) x + D x, reduced to its inf-norm in the epilogue.
      rmax.reset(n, k);
      xmax.reset(n, k);
      const detail::ResidualCheck residual{cur, nxt, pd, k, &rmax, &xmax, &ko};
      fused_sweep(op, {cur, nk}, {nxt, nk},
                  SweepEpilogue(residual,
                                {.reduces = true,
                                 .skip_masked = cur_clean && nxt_clean}));
      // On masked rows r = +0 + (-1)(+0) = +0 when x holds +0 there.
      nxt_clean = cur_clean;
      for (std::size_t q = 0; q < k; ++q) {
        if (lanes[q].running && check(q, it, rmax.max(q), xmax.max(q))) {
          stop(q);
        }
      }
      if (k > 1) {
        // How many lanes still iterate after this check.
        obs::flight("batch.active", obs::FlightKind::kBatchActive, it,
                    static_cast<double>(running));
      }
    }
  }

  std::vector<JacobiResult> results;
  results.reserve(k);
  for (std::size_t q = 0; q < k; ++q) {
    if (lanes[q].running) stop(q);
    results.push_back(std::move(lanes[q].out));
  }
  return results;
}

/// Solve A P = 0. `a_inf_norm` is ||A||_inf of the FULL matrix (with
/// diagonal); `x` carries the initial guess in and the solution out.
template <JacobiOperator Op>
JacobiResult jacobi_solve(const Op& op, real_t a_inf_norm,
                          std::span<real_t> x, const JacobiOptions& opt = {}) {
  const std::span<real_t> out[] = {x};
  JacobiResult r =
      std::move(jacobi_solve_lanes(op, {&a_inf_norm, 1}, x, out, opt)[0]);
  // Deterministic outcome metrics; host wall-clock goes to the volatile
  // section of the run report (it cannot be bit-identical run-to-run).
  obs::count("jacobi.solves");
  obs::gauge("jacobi.iterations", static_cast<real_t>(r.iterations));
  obs::gauge("jacobi.residual.final", r.residual);
  obs::gauge("jacobi.converged",
             r.reason == StopReason::kConverged ? 1.0 : 0.0);
  obs::gauge("jacobi.flops", static_cast<real_t>(r.flops));
  obs::gauge("jacobi.seconds", r.seconds, /*is_volatile=*/true);
  obs::gauge("jacobi.gflops", r.gflops, /*is_volatile=*/true);
  return r;
}

}  // namespace cmesolve::solver
