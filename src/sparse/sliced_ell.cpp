#include "sparse/sliced_ell.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "util/parallel.hpp"

namespace cmesolve::sparse {

bool SlicedEll::is_identity_perm() const noexcept {
  for (std::size_t i = 0; i < perm.size(); ++i) {
    if (perm[i] != static_cast<index_t>(i)) return false;
  }
  return true;
}

namespace {

/// Produce the stored-row -> original-row permutation for a strategy.
std::vector<index_t> make_permutation(const Csr& m, Reordering reorder,
                                      index_t window, std::uint64_t seed) {
  std::vector<index_t> perm(static_cast<std::size_t>(m.nrows));
  std::iota(perm.begin(), perm.end(), index_t{0});

  const auto by_length_desc = [&m](index_t a, index_t b) {
    const index_t la = m.row_length(a);
    const index_t lb = m.row_length(b);
    if (la != lb) return la > lb;
    return a < b;  // stable tie-break keeps neighbours together
  };

  switch (reorder) {
    case Reordering::kNone:
      break;
    case Reordering::kLocal: {
      // Sort only within block-sized windows: per-warp k shrinks while rows
      // stay within `window` positions of their DFS neighbours (Sec. VI).
      // A window keeps its original order when sorting would not reduce the
      // padded slot count — regular regions pay no permutation overhead.
      assert(window > 0);
      std::vector<index_t> sorted_window;
      const index_t warp = 32;
      const auto padded_slots = [&](auto first, auto last) {
        std::size_t slots = 0;
        for (auto it = first; it < last; it += warp) {
          const auto sub_end = std::min(it + warp, last);
          index_t k = 0;
          for (auto jt = it; jt < sub_end; ++jt) {
            k = std::max(k, m.row_length(*jt));
          }
          slots += static_cast<std::size_t>(k) *
                   static_cast<std::size_t>(sub_end - it);
        }
        return slots;
      };
      for (index_t start = 0; start < m.nrows; start += window) {
        const index_t end = std::min<index_t>(start + window, m.nrows);
        sorted_window.assign(perm.begin() + start, perm.begin() + end);
        std::sort(sorted_window.begin(), sorted_window.end(), by_length_desc);
        // Adopt the sorted order only when the padding saved (12 bytes per
        // slot) clearly outweighs the permutation overhead the format then
        // carries (4-byte row index per row, plus scattered y stores).
        const std::size_t before =
            padded_slots(perm.begin() + start, perm.begin() + end);
        const std::size_t after =
            padded_slots(sorted_window.begin(), sorted_window.end());
        const std::size_t overhead_equiv =
            2 * static_cast<std::size_t>(end - start);  // ~2 slots per row
        if (after + overhead_equiv < before) {
          std::copy(sorted_window.begin(), sorted_window.end(),
                    perm.begin() + start);
        }
      }
      break;
    }
    case Reordering::kGlobal:
      std::sort(perm.begin(), perm.end(), by_length_desc);
      break;
    case Reordering::kRandom: {
      Xoshiro256 rng(seed);
      for (std::size_t i = perm.size(); i > 1; --i) {
        std::swap(perm[i - 1], perm[rng.bounded(i)]);
      }
      break;
    }
  }
  return perm;
}

}  // namespace

SlicedEll sliced_ell_from_csr(const Csr& m, index_t slice_size,
                              Reordering reorder, index_t window,
                              std::uint64_t seed) {
  assert(slice_size > 0);
  SlicedEll s;
  s.nrows = m.nrows;
  s.ncols = m.ncols;
  s.slice_size = slice_size;
  s.nnz = m.nnz();
  s.perm = make_permutation(m, reorder, window, seed);

  const index_t num_slices = (m.nrows + slice_size - 1) / slice_size;
  s.slice_k.resize(static_cast<std::size_t>(num_slices));
  s.slice_ptr.resize(static_cast<std::size_t>(num_slices) + 1);

  // First pass: local k per slice and storage offsets.
  std::size_t offset = 0;
  for (index_t sl = 0; sl < num_slices; ++sl) {
    index_t k = 0;
    for (index_t lane = 0; lane < slice_size; ++lane) {
      const index_t stored = sl * slice_size + lane;
      if (stored >= m.nrows) break;
      k = std::max(k, m.row_length(s.perm[stored]));
    }
    s.slice_k[sl] = k;
    s.slice_ptr[sl] = offset;
    offset += static_cast<std::size_t>(k) * static_cast<std::size_t>(slice_size);
  }
  s.slice_ptr[num_slices] = offset;

  s.val.assign(offset, 0.0);
  s.col.assign(offset, kPadColumn);

  // Second pass: fill per-slice column-major.
  for (index_t sl = 0; sl < num_slices; ++sl) {
    const std::size_t base = s.slice_ptr[sl];
    for (index_t lane = 0; lane < slice_size; ++lane) {
      const index_t stored = sl * slice_size + lane;
      if (stored >= m.nrows) break;
      const index_t r = s.perm[stored];
      index_t j = 0;
      for (index_t p = m.row_ptr[r]; p < m.row_ptr[r + 1]; ++p, ++j) {
        const std::size_t slot = base +
                                 static_cast<std::size_t>(j) * slice_size +
                                 static_cast<std::size_t>(lane);
        s.val[slot] = m.val[p];
        s.col[slot] = m.col_idx[p];
      }
    }
  }
  return s;
}

void spmv(const SlicedEll& m, std::span<const real_t> x, std::span<real_t> y) {
  assert(x.size() == static_cast<std::size_t>(m.ncols));
  assert(y.size() == static_cast<std::size_t>(m.nrows));
  // Slice chunks on the util pool: perm is a bijection, so the scattered y
  // writes of different slices never alias — thread-count independent. The
  // grain keeps chunks near 4,096 rows, as for the row-wise formats.
  const real_t* va = m.val.data();
  const index_t* co = m.col.data();
  const index_t* perm = m.perm.data();
  const real_t* px = x.data();
  real_t* py = y.data();
  const std::size_t grain = std::max<std::size_t>(
      1, 4096 / static_cast<std::size_t>(std::max<index_t>(m.slice_size, 1)));
  util::parallel_for(
      static_cast<std::size_t>(m.num_slices()),
      [&m, va, co, perm, px, py](std::size_t b, std::size_t e) {
        for (index_t sl = static_cast<index_t>(b);
             sl < static_cast<index_t>(e); ++sl) {
          const std::size_t base = m.slice_ptr[sl];
          const index_t k = m.slice_k[sl];
          for (index_t lane = 0; lane < m.slice_size; ++lane) {
            const index_t stored = sl * m.slice_size + lane;
            if (stored >= m.nrows) break;
            real_t sum = 0.0;
            for (index_t j = 0; j < k; ++j) {
              const std::size_t slot =
                  base + static_cast<std::size_t>(j) * m.slice_size +
                  static_cast<std::size_t>(lane);
              const index_t c = co[slot];
              if (c > kPadColumn) {
                sum += va[slot] * px[c];
              }
            }
            py[perm[stored]] = sum;
          }
        }
      },
      grain);
}

}  // namespace cmesolve::sparse
