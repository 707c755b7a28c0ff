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
/// (the next iterate's buffer): the plain update y = -y/d, or the damped
/// y = (1-omega) x - (omega y)/d, plus — on renormalize sweeps — the L1 sum
/// of the new iterate in norm_l1's chunk order. Wholly masked stencil
/// tiles (d == -1, y == +0) skip the division: the plain update leaves
/// their +0 untouched and adds nothing to the sum, the damped one is
/// (1-omega) x - c with c = (omega*0)/(-1) formed once (DESIGN.md §16),
/// and `dirty` records whether any of those rows came out other than +0.
struct JacobiUpdate {
  const real_t* x;
  real_t* y;
  const real_t* d;
  real_t omega;
  ChunkPartials* l1;  ///< nullptr: no renormalize on this sweep
  std::atomic<bool>* dirty;
  const util::simdk::KernelOps* ko;

  void operator()(std::size_t b, std::size_t e, bool masked) const {
    if (masked && omega == 1.0) return;
    for (std::size_t sb = b; sb < e; sb += kEpilogueBlock) {
      const std::size_t se = std::min(e, sb + kEpilogueBlock);
      if (omega == 1.0) {
        ko->jacobi_update(y + sb, d + sb, se - sb);
      } else if (masked) {
        ko->jacobi_update_masked(y + sb, x + sb, omega, se - sb);
        if (!dirty->load(std::memory_order_relaxed) &&
            !all_plus_zero(y + sb, se - sb)) {
          dirty->store(true, std::memory_order_relaxed);
        }
      } else {
        ko->jacobi_update_damped(y + sb, x + sb, d + sb, omega, se - sb);
      }
      if (l1 != nullptr) l1->add_abs(y, sb, se);
    }
  }
};

/// Residual-check epilogue: r = y + d∘x (the cmul_add of the unfused
/// check, into the work buffer) and both inf-norms, which are exact in
/// any order — no residual vector is kept.
struct ResidualCheck {
  const real_t* x;
  real_t* y;
  const real_t* d;
  ChunkPartials* rmax;
  ChunkPartials* xmax;
  const util::simdk::KernelOps* ko;

  void operator()(std::size_t b, std::size_t e, bool /*masked*/) const {
    ko->cmul_add(y + b, d + b, x + b, e - b);
    rmax->max_abs(y, b, e);
    xmax->max_abs(x, b, e);
  }
};

}  // namespace detail

/// Solve A P = 0. `a_inf_norm` is ||A||_inf of the FULL matrix (with
/// diagonal); `x` carries the initial guess in and the solution out.
template <JacobiOperator Op>
JacobiResult jacobi_solve(const Op& op, real_t a_inf_norm,
                          std::span<real_t> x, const JacobiOptions& opt = {}) {
  const index_t n = op.nrows();
  if (x.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("jacobi_solve: x size mismatch");
  }
  const std::span<const real_t> d = op.diag();
  for (index_t i = 0; i < n; ++i) {
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
  const auto nz = static_cast<std::size_t>(n);
  constexpr std::size_t kAlignReals = 64 / sizeof(real_t);
  std::vector<real_t> other(nz + kAlignReals);
  void* head = other.data();
  std::size_t room = other.size() * sizeof(real_t);
  real_t* const work = static_cast<real_t*>(
      std::align(64, nz * sizeof(real_t), head, room));
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
  JacobiResult out;
  const std::uint64_t flops_per_sweep =
      2ULL * op.offdiag_nnz() + static_cast<std::uint64_t>(n);
  real_t prev_residual = -1.0;
  std::uint32_t flat_checks = 0;
  std::uint64_t check_number = 0;  // residual checks done (history sampling)
  // Stride-doubling compaction needs room for at least 2 survivors.
  const std::size_t history_cap =
      opt.history_capacity > 0 ? std::max<std::size_t>(opt.history_capacity, 2)
                               : 0;

  normalize_l1(x);
  for (std::uint64_t it = 1; it <= opt.max_iterations; ++it) {
    // One sweep: nxt = -D^{-1} (L+U) cur, optionally damped, formed in the
    // sweep's epilogue; a renormalize sweep also sums |nxt| there. The
    // update is elementwise and the sum keeps norm_l1's chunk order (only
    // a summing sweep is split on kReduceChunk boundaries), so the
    // parallel split cannot change the numbers. The damped formula
    // stays a separate kernel — at omega == 1 it is NOT bitwise the
    // undamped one (signed zeros).
    const bool renormalize =
        opt.normalize_every > 0 && it % opt.normalize_every == 0;
    {
      CMESOLVE_TRACE_SPAN("jacobi.sweep");
      if (renormalize) l1.reset(nz);
      std::atomic<bool> dirty{false};
      const detail::JacobiUpdate update{
          cur, nxt, pd, omega, renormalize ? &l1 : nullptr, &dirty, &ko};
      fused_sweep(op, {cur, nz}, {nxt, nz},
                  SweepEpilogue(update,
                                {.reduces = renormalize,
                                 .skip_masked = cur_clean && nxt_clean}));
      nxt_clean = !dirty.load(std::memory_order_relaxed);
      std::swap(cur, nxt);
      std::swap(cur_clean, nxt_clean);
    }
    out.iterations = it;
    out.flops += flops_per_sweep;
    const std::span<real_t> xc(cur, nz);

    if (renormalize) {
      CMESOLVE_TRACE_INSTANT("jacobi.renormalize");
      obs::count("jacobi.renormalizations");
      const real_t s = l1.sum();
      // The L1 drift since the last renormalization.
      obs::flight("jacobi.l1_drift", obs::FlightKind::kNormalization, it, s);
      if (s > 0.0) scale(xc, 1.0 / s);
    }

    if (it % opt.check_every == 0 || it == opt.max_iterations) {
      CMESOLVE_TRACE_SPAN("jacobi.residual_check");
      normalize_l1(xc);
      // r = A x = (L+U) x + D x, reduced to its inf-norm in the epilogue.
      rmax.reset(nz);
      xmax.reset(nz);
      const detail::ResidualCheck check{cur, nxt, pd, &rmax, &xmax, &ko};
      fused_sweep(op, {cur, nz}, {nxt, nz},
                  SweepEpilogue(check, {.reduces = true,
                                        .skip_masked = cur_clean && nxt_clean}));
      // On masked rows r = +0 + (-1)(+0) = +0 when x holds +0 there.
      nxt_clean = cur_clean;
      const real_t xn = xmax.max();
      const real_t rn = rmax.max();
      // An exactly-zero residual means the iterate solves A x = 0 to the
      // last bit. It must short-circuit to kConverged here: letting it fall
      // through would divide by a (possibly zero) a_inf_norm * xn product,
      // and a zero prev_residual would turn the relative-change stagnation
      // test below into 0/0.
      if (rn == 0.0) {
        out.residual = 0.0;
        CMESOLVE_TRACE_COUNTER("jacobi.residual", out.residual);
        obs::observe("jacobi.residual", out.residual);
        obs::flight("jacobi.residual", obs::FlightKind::kResidual, it, 0.0);
        if (opt.on_residual) opt.on_residual(it, out.residual);
        out.reason = StopReason::kConverged;
        break;
      }
      out.residual = rn / (a_inf_norm * (xn > 0 ? xn : 1.0));
      out.flops += flops_per_sweep;  // the residual costs one extra sweep
      CMESOLVE_TRACE_COUNTER("jacobi.residual", out.residual);
      obs::observe("jacobi.residual", out.residual);
      obs::flight("jacobi.residual", obs::FlightKind::kResidual, it,
                  out.residual);
      if (opt.on_residual) opt.on_residual(it, out.residual);
      if (history_cap > 0) {
        if (check_number % out.history_stride == 0) {
          if (out.residual_history.size() >= history_cap) {
            // Full: keep every 2nd surviving sample and double the stride —
            // the buffer stays bounded while spanning the whole solve.
            std::size_t w = 0;
            for (std::size_t r = 0; r < out.residual_history.size(); r += 2) {
              out.residual_history[w++] = out.residual_history[r];
            }
            out.residual_history.resize(w);
            out.history_stride *= 2;
          }
          if (check_number % out.history_stride == 0) {
            out.residual_history.push_back({it, out.residual});
          }
        }
        ++check_number;
      }

      if (out.residual <= opt.eps) {
        out.reason = StopReason::kConverged;
        break;
      }
      // prev_residual > 0 (not >= 0): the relative-change quotient is
      // undefined at zero, and a zero previous residual would have stopped
      // the solve as converged already.
      if (prev_residual > 0.0 &&
          std::abs(out.residual - prev_residual) / prev_residual <=
              opt.stagnation_eps) {
        obs::flight("jacobi.stagnation", obs::FlightKind::kStagnation, it,
                    std::abs(out.residual - prev_residual) / prev_residual);
        if (++flat_checks >= opt.stagnation_patience) {
          out.reason = StopReason::kStagnated;
          break;
        }
      } else {
        flat_checks = 0;
      }
      prev_residual = out.residual;
    }
  }

  if (cur != x.data()) std::copy(cur, cur + nz, x.data());
  normalize_l1(x);
  out.seconds = timer.seconds();
  out.gflops = out.seconds > 0
                   ? static_cast<real_t>(out.flops) / out.seconds / 1.0e9
                   : 0.0;
  obs::flight("jacobi.stop", obs::FlightKind::kStop, out.iterations,
              static_cast<double>(out.reason));
  if (out.reason != StopReason::kConverged && obs::flight_enabled()) {
    // Arm the post mortem: write_report() dumps the recorded trajectory
    // into the run report's "flight" section for this failed solve.
    obs::FlightRecorder::instance().mark_post_mortem(to_string(out.reason));
  }
  // Deterministic outcome metrics; host wall-clock goes to the volatile
  // section of the run report (it cannot be bit-identical run-to-run).
  obs::count("jacobi.solves");
  obs::gauge("jacobi.iterations", static_cast<real_t>(out.iterations));
  obs::gauge("jacobi.residual.final", out.residual);
  obs::gauge("jacobi.converged",
             out.reason == StopReason::kConverged ? 1.0 : 0.0);
  obs::gauge("jacobi.flops", static_cast<real_t>(out.flops));
  obs::gauge("jacobi.seconds", out.seconds, /*is_volatile=*/true);
  obs::gauge("jacobi.gflops", out.gflops, /*is_volatile=*/true);
  return out;
}

}  // namespace cmesolve::solver
