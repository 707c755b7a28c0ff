#pragma once
//
// Batched multi-RHS ensemble solver: one stencil structure, K parameter
// points per sweep.
//
// Production CME workloads are parameter sweeps over ONE reaction network:
// the state-space enumeration, conservation-law elimination, mixed-radix
// packing and per-reaction stride/window tables are identical for every
// point; only the rate constants differ. Because every propensity is
// evaluated rate-LAST (value = rate * unit combinatorial product, see
// core::StencilTable), the whole off-diagonal operator factors exactly as
//
//     A_k(i, i - stride_r) = coef[r][k] * U[r][src]
//
// where U is the rate-independent unit-propensity table (computed once per
// ensemble) and coef[r][k] is a per-point scalar. The batched sweep keeps
// K probability vectors interleaved point-major — element (row i, point k)
// at x[i*K + k] — so the inner loop over k is contiguous and vectorizes
// across the batch dimension: one pass streams the unit table once and
// advances all K right-hand sides, converting the memory-bound single-RHS
// sweep into an arithmetically dense one.
//
// Determinism contract (inherited from PR 1): every value depends only on
// (row, reaction, point) and per-row accumulation happens in reaction
// order inside the chunk owning the row, so results are bit-identical at
// any thread count. Stronger still, lane k of the batched pipeline is
// bit-identical to the SINGLE-RHS path solving point k alone: the shared
// unit table makes coef*u the exact product the single sweep computes,
// lanes never mix, and solve_ensemble runs each block through
// jacobi_solve_lanes — the single-RHS Jacobi loop, per-lane control state
// and chunk-ordered per-lane norms included. tools/cme_fuzz cross-checks
// this equivalence continuously.
//
#include <cstdint>
#include <span>
#include <vector>

#include "core/stencil.hpp"
#include "solver/gmres.hpp"
#include "solver/jacobi.hpp"
#include "solver/stencil_operator.hpp"
#include "util/aligned_vector.hpp"
#include "util/types.hpp"

namespace cmesolve::solver {

/// Rate-independent activity mask over the box rows: active rows have
/// valid derived counts AND positive unit outflow. For any strictly
/// positive rate vector this equals "diagonal is not the -1 sentinel", so
/// masking is shared by every point of an ensemble (a point cannot go
/// absorbing on its own).
[[nodiscard]] std::vector<std::uint8_t> box_active_rows(
    const core::StencilTable& table);

/// Shared per-ensemble structure: the unit-rate propensity-cache operator
/// (combinatorial table computed ONCE per ensemble) plus the row activity
/// mask. Build once per (network, anchor); every block of an ensemble
/// binds its per-point coefficients against it. The source table must be
/// rebind-eligible (all compiled rates > 0).
class EnsembleStructure {
 public:
  explicit EnsembleStructure(const core::StencilTable& base);

  [[nodiscard]] const StencilOperator& unit() const noexcept { return unit_; }
  [[nodiscard]] index_t nrows() const noexcept {
    return unit_.table().box_rows();
  }
  [[nodiscard]] std::span<const std::uint8_t> row_active() const noexcept {
    return row_active_;
  }
  [[nodiscard]] index_t rows_active() const noexcept { return rows_active_; }
  /// Largest active row index (the GMRES constraint row).
  [[nodiscard]] index_t last_active_row() const noexcept {
    return last_active_;
  }

 private:
  StencilOperator unit_;
  std::vector<std::uint8_t> row_active_;
  index_t rows_active_ = 0;
  index_t last_active_ = -1;
};

/// Off-diagonal operator applying K parameter points per sweep. Vectors
/// are interleaved point-major: element (row i, point k) at x[i*K + k].
/// diag() is interleaved the same way (−1 sentinel on masked rows, every
/// lane). A JacobiOperator whose lanes jacobi_solve_lanes solves at once.
class BatchedStencilOperator {
 public:
  /// `rates[k]` is point k's rate vector indexed by NETWORK reaction id
  /// (size network().num_reactions()); every compiled reaction's rate must
  /// be finite and > 0 (throws std::invalid_argument otherwise).
  BatchedStencilOperator(const EnsembleStructure& structure,
                         std::span<const std::vector<real_t>> rates);

  [[nodiscard]] int batch() const noexcept { return batch_; }
  [[nodiscard]] index_t nrows() const noexcept { return structure_->nrows(); }
  /// Interleaved per-lane diagonal, nrows() * batch() entries.
  [[nodiscard]] std::span<const real_t> diag() const noexcept { return diag_; }
  /// ||A_k||_inf per point, bitwise equal to the single-RHS operator's.
  [[nodiscard]] std::span<const real_t> inf_norms() const noexcept {
    return inf_norms_;
  }
  /// Off-diagonal entries per point (identical across the batch).
  [[nodiscard]] std::size_t offdiag_nnz() const noexcept {
    return structure_->unit().offdiag_nnz();
  }
  [[nodiscard]] const EnsembleStructure& structure() const noexcept {
    return *structure_;
  }

  /// y = (L + U) x for all K points: x and y interleaved, size
  /// nrows() * batch(). Lane k is bitwise equal to the single-RHS cached
  /// sweep of point k at any thread count.
  void multiply(std::span<const real_t> x, std::span<real_t> y) const;

  /// Modeled per-sweep traffic: the unit table streams ONCE for the whole
  /// batch (reactions x rows), while x reads and y writes scale with K —
  /// the amortization the gpusim batched kernel charges.
  [[nodiscard]] std::size_t bytes_modeled() const noexcept;

 private:
  const EnsembleStructure* structure_;
  int batch_ = 0;
  /// 64-byte aligned: coef_ rows and the interleaved diagonal are streamed
  /// by the SIMD batched-sweep and lane kernels.
  util::aligned_vector<real_t> coef_;  ///< [compiled reaction r][point k]
  util::aligned_vector<real_t> diag_;  ///< interleaved rows x batch
  std::vector<real_t> inf_norms_;      ///< per point
};

struct EnsembleOptions {
  /// Lanes per batched block; the ensemble is solved in ceil(K/width)
  /// blocks. 1 degenerates to per-point solves through the batched code.
  int batch_width = 8;
  /// false: reference path — same ordering, guesses and fallback, but each
  /// point solved through the single-RHS StencilOperator + jacobi_solve.
  /// Bitwise identical results to the batched path by construction; the
  /// verify oracle and bench assert it.
  bool batched = true;
  /// Nearest-neighbor continuation ordering in log-rate space plus warm
  /// starts from the nearest solved point of an EARLIER block (block
  /// granularity keeps batched and sequential modes bitwise comparable).
  bool continuation = true;
  /// Re-solve lanes that stagnated (or hit max iterations) with restarted
  /// GMRES on the nonsingular-ized system, warm-started from the lane's
  /// Jacobi iterate.
  bool gmres_fallback = true;
  JacobiOptions jacobi;
  GmresOptions gmres;
  /// Optional box-layout initial guess applied where no warm start exists
  /// (empty: uniform over active rows).
  std::vector<real_t> initial_guess;
};

struct EnsemblePointResult {
  JacobiResult jacobi;
  bool gmres_used = false;
  bool converged = false;
  std::vector<real_t> p;  ///< stationary vector, box layout
};

struct EnsembleResult {
  std::vector<EnsemblePointResult> points;  ///< input order
  std::vector<int> order;                   ///< solve order (continuation)
  real_t seconds_total = 0.0;
  /// One-time shared work: unit-propensity cache + activity mask (batched
  /// mode) or the activity mask alone (sequential mode).
  real_t seconds_setup = 0.0;
};

/// Greedy nearest-neighbor chain over the points in log-rate space,
/// starting at point 0 (deterministic smallest-index tie-breaks). Nearby
/// rate vectors have nearby stationary distributions, so solving along the
/// chain makes every warm start informative.
[[nodiscard]] std::vector<int> continuation_order(
    std::span<const std::vector<real_t>> rates);

/// Solve the steady state of every parameter point against one shared
/// stencil structure. `rates[k]` indexes network reactions; all entries
/// must be finite and > 0 (throws std::invalid_argument). Results are in
/// input order; EnsembleResult::order records the continuation chain.
[[nodiscard]] EnsembleResult solve_ensemble(
    const core::StencilTable& base,
    std::span<const std::vector<real_t>> rates, const EnsembleOptions& opt = {});

}  // namespace cmesolve::solver
