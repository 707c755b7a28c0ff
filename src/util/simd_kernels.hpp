#pragma once
//
// Function-pointer kernel table for the explicit SIMD layer.
//
// Each entry set is compiled once per ISA from the same width-templated
// bodies (simd_kernels_impl.hpp) into its own translation unit with the
// matching -m flags plus -ffp-contract=off. kernels() resolves the table
// through util::simd::active_isa() — one atomic load on the hot path.
//
// Bitwise contract: for every kernel, element i of the output is produced
// by the exact same sequence of IEEE-754 operations at every width and
// every ISA (vectorization is across independent elements/lanes, never
// inside a reduction), so all tables produce bit-identical results. The
// dispatch-parity property test (tests/test_simd_dispatch.cpp) enforces
// this end-to-end through the solvers.
//
#include <cstddef>
#include <cstdint>

#include "util/simd.hpp"
#include "util/types.hpp"

namespace cmesolve::util::simdk {

/// One batched-lane stencil sweep chunk (BatchedStencilOperator).
/// Layout is point-major: element (row i, lane q) lives at x[i*k + q].
struct BatchedSweepArgs {
  const real_t* x;            ///< [nrows*k] interleaved input
  real_t* y;                  ///< [nrows*k] interleaved output (chunk zeroed here)
  const real_t* cache;        ///< [nreactions][nrows] unit propensities U[r][src]
  const real_t* coef;         ///< [nreactions][k] lane coefficients
  const std::int64_t* strides;  ///< [nreactions] row stride of each reaction
  std::size_t nreactions;
  std::int64_t nrows;
  std::size_t k;              ///< lanes (batch width)
};

/// Per-ISA entry points. All pointers are non-null in every table.
struct KernelOps {
  simd::Isa isa;
  const char* name;  ///< to_string(isa)
  int width;         ///< doubles per vector

  /// y[i] += a * x[i]
  void (*axpy)(real_t* y, const real_t* x, real_t a, std::size_t n);
  /// y[i] += c[i] * x[i]   (cached stencil sweep window, residual pass)
  void (*cmul_add)(real_t* y, const real_t* c, const real_t* x,
                   std::size_t n);
  /// y[i] += s1 * (s2 * c[i]) * x[i]   (recompute-mode fused tile window;
  /// the parenthesisation matches the scalar source exactly)
  void (*scaled_cmul_add)(real_t* y, const real_t* c, const real_t* x,
                          real_t s1, real_t s2, std::size_t n);
  /// x[i] *= a
  void (*scale)(real_t* x, real_t a, std::size_t n);
  /// Sweep-epilogue Jacobi update, in place on the sweep output:
  /// y[i] = -y[i]/d[i].
  void (*jacobi_update)(real_t* y, const real_t* d, std::size_t n);
  /// Damped: y[i] = (1-omega)*x[i] - (omega*y[i])/d[i]. Kept separate from
  /// jacobi_update — at omega == 1 the damped formula is NOT bitwise the
  /// undamped one (signed-zero differences).
  void (*jacobi_update_damped)(real_t* y, const real_t* x, const real_t* d,
                               real_t omega, std::size_t n);
  /// Damped update of rows known to hold d == -1 and y == +0 (wholly masked
  /// stencil tiles): y[i] = (1-omega)*x[i] - c with c = (omega*0.0)/(-1.0)
  /// formed once — bitwise jacobi_update_damped on those rows, no division.
  void (*jacobi_update_masked)(real_t* y, const real_t* x, real_t omega,
                               std::size_t n);
  /// Lane-masked rescale over [rows][k]: x[i*k+q] *= inv[q] where
  /// scale_lane[q] != 0; other lanes keep their bits.
  void (*lane_scale)(real_t* x, std::size_t rows, std::size_t k,
                     const real_t* inv, const std::uint8_t* scale_lane);
  /// Batched stencil sweep over rows [cb, ce), row-outer: each row's k-lane
  /// vector accumulates y[i*k+q] = sum_r (coef[r*k+q]*u) * x[(i-s_r)*k+q)
  /// across reactions IN REACTION ORDER (the per-row summation order the
  /// determinism contract fixes) and is written once, with the per-row
  /// u == 0 skip — vectorized across the k lanes, and across rows for the
  /// unit-stream zero scan.
  void (*batched_sweep)(const BatchedSweepArgs& a, std::int64_t cb,
                        std::int64_t ce);
};

/// The table for simd::active_isa(). Hot path: one relaxed atomic load
/// after first-use resolution.
const KernelOps& kernels();

/// The table for a specific ISA; falls back to scalar when `isa` is not
/// compiled in (callers that care should consult simd::compiled_isas()).
const KernelOps& kernels_for(simd::Isa isa);

}  // namespace cmesolve::util::simdk
