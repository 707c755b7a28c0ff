#pragma once
//
// Transient probability landscape P(t) = exp(A t) P(0) by uniformization —
// the extension the paper lists as future work (Sec. VIII: "we plan to
// further develop our GPU-based CME stochastic framework by including
// transient dynamic calculation").
//
// With lambda >= max_i |a_ii|, the uniformized matrix B = I + A / lambda is
// column-stochastic (column-substochastic on a leaky FSP truncation) and
//
//   P(t) = sum_{k>=0} PoissonPmf(k; lambda t) * B^k P(0).
//
// The production engine in transient.cpp adds, over the original header toy:
//
//  * two-sided Poisson truncation — the accumulation window drops both the
//    left tail (terms before the Poisson bulk, relevant for large lambda*t)
//    and the right tail, each bounded by eps/2 per step;
//  * interval splitting — a horizon whose Poisson mean exceeds
//    `max_step_mean` is split into equal sub-steps so the series length per
//    step stays bounded and the left-tail trim can engage;
//  * explicit mass accounting — `covered_mass` and `truncated_mass` close
//    to 1 within rounding for a completed single-step solve;
//  * a `renormalize` switch — FSP transient propagation keeps the raw
//    substochastic vector because 1 - ||P(t)||_1 IS the error bound.
//
// Every vector update runs through the deterministic kernel-table / chunked
// reduction primitives (vector_ops.hpp), so a transient solve is bitwise
// identical at any CMESOLVE_THREADS and on every compiled ISA, matching the
// Jacobi contract. Each term costs one SpMV, so the kernel profile is
// identical to a Jacobi sweep and runs on the same operators.
//
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "solver/jacobi.hpp"
#include "util/types.hpp"

namespace cmesolve::solver {

struct TransientOptions {
  /// Allowed truncated Poisson mass per uniformization step (left + right
  /// tail combined). Must be in (0, 1): eps == 0 is rejected with
  /// std::invalid_argument because the accumulated mass carries ~1e-12 of
  /// rounding error, so `mass >= 1 - eps` could never fire and the solve
  /// would spin to max_terms on zero-weight SpMVs. Values below the
  /// accumulation floor are legal — the tail-exhaustion exit terminates the
  /// series at the numerically exact stopping point instead.
  real_t eps = 1e-12;
  /// lambda = margin * max |a_ii|; must be >= 1 or B has negative entries.
  real_t lambda_margin = 1.01;
  std::uint64_t max_terms = 1'000'000;  ///< total series-length budget
  /// Interval splitting: one uniformization step never carries a Poisson
  /// mean above this; longer horizons run ceil(lambda*t / max_step_mean)
  /// equal sub-steps, each with an eps share of eps/steps.
  real_t max_step_mean = 4096.0;
  /// L1-renormalize after every step (proper distribution out). FSP
  /// transient propagation sets false: on the leaky truncated generator the
  /// missing mass 1 - ||P(t)||_1 is exactly the FSP error bound and must
  /// not be washed out.
  bool renormalize = true;
};

struct TransientResult {
  std::uint64_t matvecs = 0;  ///< SpMV count (total series length)
  std::uint64_t steps = 0;    ///< uniformization sub-steps taken
  /// Leading series terms whose accumulation was skipped by the left-tail
  /// trim (their SpMVs still run — B^k P(0) is needed to continue — but the
  /// axpy into the accumulator is saved and the window stays tight).
  std::uint64_t left_skipped = 0;
  /// Product over sub-steps of the per-step accumulated Poisson window
  /// mass. For a completed (!truncated_early) SINGLE-step solve,
  /// covered_mass + truncated_mass == 1 within rounding.
  real_t covered_mass = 0.0;
  /// Sum over sub-steps of the computed mass outside the window: the
  /// left-trimmed head plus the right tail walked scalar (no SpMVs) until
  /// it underflows. Meaningless when truncated_early (the tail was never
  /// reached).
  real_t truncated_mass = 0.0;
  real_t lambda = 0.0;
  /// Hit the max_terms budget with Poisson mass still outstanding. The
  /// returned `p` is the truncated series renormalized by the covered mass
  /// (when renormalize is set) — except when covered_mass == 0, where `p`
  /// is left unchanged: there is no usable information in the prefix.
  bool truncated_early = false;
  /// A step ended because every remaining tail weight underflows to zero in
  /// double precision — the numerically exact stopping point, and the
  /// normal exit when eps is at or below the accumulation floor.
  bool tail_exhausted = false;
};

/// Type-erased Jacobi-operator view the out-of-line engine runs on: row
/// count, dense diagonal, and the strictly off-diagonal multiply. Built via
/// transient_operator() from anything satisfying JacobiOperator — assembled
/// CSR/ELL/DIA, matrix-free stencil (SIMD-dispatched), masked FSP stencil.
struct TransientOperator {
  index_t n = 0;
  std::span<const real_t> diag;
  std::function<void(std::span<const real_t>, std::span<real_t>)> multiply;
};

/// Build the type-erased view. The result captures `op` BY REFERENCE (the
/// multiply closure and the diag span both point into it): it is a
/// non-owning view that must not outlive the source operator. Binding a
/// temporary is rejected at compile time by the deleted rvalue overload.
template <JacobiOperator Op>
[[nodiscard]] TransientOperator transient_operator(const Op& op) {
  return TransientOperator{
      op.nrows(), op.diag(),
      [&op](std::span<const real_t> x, std::span<real_t> y) {
        op.multiply(x, y);
      }};
}

template <JacobiOperator Op>
TransientOperator transient_operator(const Op&& op) = delete;

/// Advance `p` in place from P(0) to P(t).
TransientResult transient_solve(const TransientOperator& op, real_t t,
                                std::span<real_t> p,
                                const TransientOptions& opt = {});

template <JacobiOperator Op>
TransientResult transient_solve(const Op& op, real_t t, std::span<real_t> p,
                                const TransientOptions& opt = {}) {
  return transient_solve(transient_operator(op), t, p, opt);
}

}  // namespace cmesolve::solver
