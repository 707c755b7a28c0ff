#pragma once
//
// Dense-vector helpers for the iterative solvers.
//
// All reductions run as deterministic fixed-chunk parallel reductions: the
// vector is cut into kReduceChunk-element chunks regardless of the thread
// count, each chunk is reduced serially in index order, and the per-chunk
// partials are combined in ascending chunk order. The result is therefore
// bit-identical for any number of host threads (including the serial
// fallback build), which the solver's convergence histories rely on — see
// tests/test_parallel_determinism.cpp.
//
#include <cassert>
#include <cmath>
#include <span>

#include "util/parallel.hpp"
#include "util/simd_kernels.hpp"
#include "util/types.hpp"

namespace cmesolve::solver {

/// Fixed reduction-chunk size (elements). Independent of the thread count by
/// design — changing it changes the floating-point association, so it is a
/// single constant rather than a tuning knob.
inline constexpr std::size_t kReduceChunk = 8192;

[[nodiscard]] inline real_t norm_inf(std::span<const real_t> v) {
  const real_t* p = v.data();
  return util::parallel_reduce(
      v.size(), kReduceChunk, real_t{0.0},
      [p](std::size_t b, std::size_t e) {
        real_t best = 0.0;
        for (std::size_t i = b; i < e; ++i) best = std::max(best, std::abs(p[i]));
        return best;
      },
      [](real_t a, real_t b) { return std::max(a, b); });
}

[[nodiscard]] inline real_t norm_l1(std::span<const real_t> v) {
  const real_t* p = v.data();
  return util::parallel_reduce(
      v.size(), kReduceChunk, real_t{0.0},
      [p](std::size_t b, std::size_t e) {
        real_t sum = 0.0;
        for (std::size_t i = b; i < e; ++i) sum += std::abs(p[i]);
        return sum;
      },
      [](real_t a, real_t b) { return a + b; });
}

[[nodiscard]] inline real_t norm_l2(std::span<const real_t> v) {
  const real_t* p = v.data();
  const real_t sum = util::parallel_reduce(
      v.size(), kReduceChunk, real_t{0.0},
      [p](std::size_t b, std::size_t e) {
        real_t s = 0.0;
        for (std::size_t i = b; i < e; ++i) s += p[i] * p[i];
        return s;
      },
      [](real_t a, real_t b) { return a + b; });
  return std::sqrt(sum);
}

[[nodiscard]] inline real_t dot(std::span<const real_t> a,
                                std::span<const real_t> b) {
  assert(a.size() == b.size());
  const real_t* pa = a.data();
  const real_t* pb = b.data();
  return util::parallel_reduce(
      a.size(), kReduceChunk, real_t{0.0},
      [pa, pb](std::size_t lo, std::size_t hi) {
        real_t s = 0.0;
        for (std::size_t i = lo; i < hi; ++i) s += pa[i] * pb[i];
        return s;
      },
      [](real_t x, real_t y) { return x + y; });
}

/// y += alpha * x. Elementwise passes route through the explicit SIMD
/// kernel table (util/simd_kernels.hpp): the per-element operation chain
/// is identical at every vector width, so results stay bit-identical under
/// CMESOLVE_SIMD forcing. The reductions above deliberately do NOT — SIMD
/// across a reduction changes the association, which the fixed-chunk
/// determinism contract forbids.
inline void axpy(real_t alpha, std::span<const real_t> x, std::span<real_t> y) {
  assert(x.size() == y.size());
  const real_t* px = x.data();
  real_t* py = y.data();
  const util::simdk::KernelOps& ko = util::simdk::kernels();
  util::parallel_for(x.size(),
                     [alpha, px, py, &ko](std::size_t b, std::size_t e) {
                       ko.axpy(py + b, px + b, alpha, e - b);
                     });
}

inline void scale(std::span<real_t> v, real_t alpha) {
  real_t* p = v.data();
  const util::simdk::KernelOps& ko = util::simdk::kernels();
  util::parallel_for(v.size(), [alpha, p, &ko](std::size_t b, std::size_t e) {
    ko.scale(p + b, alpha, e - b);
  });
}

/// Rescale so that sum |v_i| = 1 (probability-vector invariant, Sec. IV).
/// No-op on the zero vector.
inline void normalize_l1(std::span<real_t> v) {
  const real_t s = norm_l1(v);
  if (s > 0.0) scale(v, 1.0 / s);
}

/// Uniform probability vector.
inline void fill_uniform(std::span<real_t> v) {
  const real_t p = 1.0 / static_cast<real_t>(v.size());
  real_t* pv = v.data();
  util::parallel_for(v.size(), [p, pv](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) pv[i] = p;
  });
}

/// Warm-start vector for a re-solve on a renumbered/extended index set (the
/// FSP expansion/prune loop, src/fsp/, and the ensemble's continuation
/// order, src/solver/batched.cpp): every new-index entry starts at `fill`, surviving entries
/// copy the previous solution through `remap` (old index -> new index,
/// -1 = dropped), and the result is L1-normalized back to a probability
/// vector. With remap[i] == i this degenerates to "pad the old landscape
/// with `fill` for appended states" — the warm-start contract of the
/// adaptive pipeline.
///
/// Returns true when the warm start was applied. A previous vector that
/// does not fit the new index set — prev/remap length mismatch, a remap
/// target outside `out` (a cached solution from a pruned/expanded FSP set
/// or a different conservation elimination), or a mapping that carries no
/// probability mass at all — falls back to uniform seeding over `out` and
/// returns false instead of scattering out of bounds. Cold-start cost, not
/// UB, is the failure mode for a stale previous vector.
inline bool warm_restart(std::span<const real_t> prev,
                         std::span<const index_t> remap, std::span<real_t> out,
                         real_t fill = 0.0) {
  if (prev.size() != remap.size()) {
    fill_uniform(out);
    return false;
  }
  const auto nout = static_cast<index_t>(out.size());
  for (std::size_t i = 0; i < remap.size(); ++i) {
    if (remap[i] >= nout) {
      fill_uniform(out);
      return false;
    }
  }
  real_t* po = out.data();
  util::parallel_for(out.size(), [fill, po](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) po[i] = fill;
  });
  // Scatter serially: targets are unique but the mapping is gather-unsafe
  // to chunk without inverting it, and this runs once per FSP round.
  for (std::size_t i = 0; i < prev.size(); ++i) {
    const index_t j = remap[i];
    if (j >= 0) out[static_cast<std::size_t>(j)] = prev[i];
  }
  if (norm_l1(out) == 0.0) {
    // Every surviving entry was dropped (or carried zero probability): the
    // previous solution contributes nothing, so seed uniformly.
    fill_uniform(out);
    return false;
  }
  normalize_l1(out);
  return true;
}

}  // namespace cmesolve::solver
