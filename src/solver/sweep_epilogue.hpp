#pragma once
//
// Sweep epilogues: per-row work run on each block of a sweep's output rows
// as soon as the block's y values are final, on the thread that computed
// them, while the block is still cache-hot (DESIGN.md §8).
//
// Contract, for an epilogue epi(begin, end, masked):
//  * it is called exactly once for every row of [0, n);
//  * rows [begin, end) of y are final; it may read x and y on those rows
//    and write y there, nothing else (other blocks still read x);
//  * `masked` promises d == -1 and y == +0 on every row of the block (a
//    wholly masked stencil tile), which lets an update skip the division;
//  * for an epilogue built with `reduces`, the blocks of each
//    kReduceChunk-aligned chunk arrive in ascending row order, never two
//    at once — so a fixed-chunk reduction can ride along (ChunkPartials
//    below) with norm_l1's exact association. The sweep then splits its
//    rows with parallel_for_aligned(n, kReduceChunk); for any other
//    epilogue it keeps parallel_for's finer chunking;
//  * an epilogue built with `skip_masked` asserts that x and y already
//    hold +0 on every row the sweep would flag masked, and that the
//    epilogue would leave +0 there. The sweep may then skip masked blocks
//    outright — no zero fill, no call — so "exactly once" covers the
//    other rows only.
//
// Operators with a fused path expose multiply(x, y, SweepEpilogue);
// fused_sweep() falls back to multiply followed by one epilogue pass for
// every other operator.
//
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "solver/vector_ops.hpp"
#include "util/parallel.hpp"
#include "util/types.hpp"

namespace cmesolve::solver {

/// How a sweep may schedule an epilogue (contract above).
struct EpilogueFlags {
  bool reduces = false;      ///< feeds a ChunkPartials reduction
  bool skip_masked = false;  ///< masked rows of x and y hold +0 and stay so
};

/// Non-owning reference to a block callback epi(begin, end, masked). The
/// referenced callable must outlive the call it is passed to.
class SweepEpilogue {
 public:
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, SweepEpilogue> &&
             std::is_invocable_v<const F&, std::size_t, std::size_t, bool>)
  explicit SweepEpilogue(const F& f, EpilogueFlags flags = {}) noexcept
      : obj_(&f),
        call_([](const void* o, std::size_t b, std::size_t e, bool masked) {
          (*static_cast<const F*>(o))(b, e, masked);
        }),
        flags_(flags) {}

  void operator()(std::size_t begin, std::size_t end, bool masked) const {
    call_(obj_, begin, end, masked);
  }

  /// Alignment of the sweep's parallel chunks: kReduceChunk when the
  /// epilogue reduces, else 1 (parallel_for's chunking).
  [[nodiscard]] std::size_t align() const noexcept {
    return flags_.reduces ? kReduceChunk : 1;
  }

  /// True when the sweep may skip masked blocks outright.
  [[nodiscard]] bool skip_masked() const noexcept {
    return flags_.skip_masked;
  }

 private:
  const void* obj_;
  void (*call_)(const void*, std::size_t, std::size_t, bool);
  EpilogueFlags flags_;
};

/// Rows an epilogue processes per kernel call: small enough that a
/// reduction re-reading the just-written rows finds them in L1.
inline constexpr std::size_t kEpilogueBlock = 512;

/// True when every v[i] is +0 or -0 (a NaN counts as nonzero).
[[nodiscard]] inline bool all_zero(const real_t* v, std::size_t n) {
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bits |= std::bit_cast<std::uint64_t>(v[i]) << 1;  // drop the sign bit
  }
  return bits == 0;
}

/// True when every v[i] is +0 (bitwise zero).
[[nodiscard]] inline bool all_plus_zero(const real_t* v, std::size_t n) {
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < n; ++i) bits |= std::bit_cast<std::uint64_t>(v[i]);
  return bits == 0;
}

/// Per-kReduceChunk partials of a reduction fused into a sweep epilogue.
/// Safe under the contract of a reducing epilogue: a chunk's blocks arrive
/// in row order, never concurrently.
class ChunkPartials {
 public:
  /// Zeroed partials for an n-row sweep.
  void reset(std::size_t n) {
    partial_.assign((n + kReduceChunk - 1) / kReduceChunk, 0.0);
  }

  /// Running sum of |v[i]| over rows [b, e), carried across calls in row
  /// order: per chunk the additions norm_l1 performs, in its order. An
  /// all-zero range is skipped — adding +0 to a sum that starts at +0 and
  /// only grows changes no bit — which spares the serial add chain on
  /// masked stencil tiles.
  void add_abs(const real_t* v, std::size_t b, std::size_t e) {
    fold(v, b, e, [](real_t s, real_t a) { return s + a; });
  }

  /// max |v[i]| over rows [b, e); exact in any order.
  void max_abs(const real_t* v, std::size_t b, std::size_t e) {
    fold(v, b, e, [](real_t m, real_t a) { return std::max(m, a); });
  }

  /// Partials summed in ascending chunk order from 0.0: bitwise norm_l1
  /// of the rows fed through add_abs.
  [[nodiscard]] real_t sum() const {
    real_t acc = 0.0;
    for (const real_t p : partial_) acc = acc + p;
    return acc;
  }

  /// Largest partial: bitwise norm_inf of the rows fed through max_abs.
  [[nodiscard]] real_t max() const {
    real_t acc = 0.0;
    for (const real_t p : partial_) acc = std::max(acc, p);
    return acc;
  }

 private:
  /// partial[chunk(i)] = op(partial[chunk(i)], |v[i]|) in row order; an
  /// all-zero range leaves both folds unchanged and is skipped.
  template <class Op>
  void fold(const real_t* v, std::size_t b, std::size_t e, Op op) {
    if (all_zero(v + b, e - b)) return;
    while (b < e) {
      const std::size_t c = b / kReduceChunk;
      const std::size_t ce = std::min(e, (c + 1) * kReduceChunk);
      real_t acc = partial_[c];
      for (std::size_t i = b; i < ce; ++i) acc = op(acc, std::abs(v[i]));
      partial_[c] = acc;
      b = ce;
    }
  }

  std::vector<real_t> partial_;
};

/// The epilogue pass of an unfused operator: epi over [0, n) in parallel
/// blocks aligned as epi.align() asks.
inline void epilogue_pass(std::size_t n, SweepEpilogue epi) {
  util::parallel_for_aligned(n, epi.align(),
                             [epi](std::size_t b, std::size_t e) {
                               epi(b, e, false);
                             });
}

/// y = (L + U) x with `epi` applied to every output block: the operator's
/// fused path when it has one, otherwise multiply plus one epilogue pass.
template <class Op>
void fused_sweep(const Op& op, std::span<const real_t> x, std::span<real_t> y,
                 SweepEpilogue epi) {
  if constexpr (requires { op.multiply(x, y, epi); }) {
    op.multiply(x, y, epi);
  } else {
    op.multiply(x, y);
    epilogue_pass(y.size(), epi);
  }
}

}  // namespace cmesolve::solver
