#include "sparse/dia.hpp"

#include <algorithm>
#include <cassert>

#include "util/parallel.hpp"

namespace cmesolve::sparse {

namespace {

/// Number of in-range slots of a diagonal at `offset` in an n x m matrix.
std::size_t diagonal_slots(index_t nrows, index_t ncols, index_t offset) {
  // Row r is in range when 0 <= r + offset < ncols.
  const index_t lo = std::max<index_t>(0, -offset);
  const index_t hi = std::min<index_t>(nrows, ncols - offset);
  return hi > lo ? static_cast<std::size_t>(hi - lo) : 0;
}

}  // namespace

real_t Dia::density() const noexcept {
  std::size_t slots = 0;
  for (index_t off : offsets) slots += diagonal_slots(nrows, ncols, off);
  return slots ? static_cast<real_t>(nnz) / static_cast<real_t>(slots) : 0.0;
}

Dia dia_from_csr(const Csr& m, std::vector<index_t> offsets) {
  std::sort(offsets.begin(), offsets.end());
  Dia d;
  d.nrows = m.nrows;
  d.ncols = m.ncols;
  d.offsets = std::move(offsets);
  d.data.assign(d.offsets.size() * static_cast<std::size_t>(m.nrows), 0.0);

  for (index_t r = 0; r < m.nrows; ++r) {
    for (index_t p = m.row_ptr[r]; p < m.row_ptr[r + 1]; ++p) {
      const index_t off = m.col_idx[p] - r;
      const auto it = std::lower_bound(d.offsets.begin(), d.offsets.end(), off);
      if (it != d.offsets.end() && *it == off) {
        const std::size_t di = static_cast<std::size_t>(it - d.offsets.begin());
        d.data[di * m.nrows + static_cast<std::size_t>(r)] = m.val[p];
        ++d.nnz;
      }
    }
  }
  return d;
}

Csr strip_diagonals(const Csr& m, std::span<const index_t> offsets) {
  std::vector<index_t> sorted(offsets.begin(), offsets.end());
  std::sort(sorted.begin(), sorted.end());

  Csr out;
  out.nrows = m.nrows;
  out.ncols = m.ncols;
  out.row_ptr.assign(static_cast<std::size_t>(m.nrows) + 1, 0);
  out.col_idx.reserve(m.nnz());
  out.val.reserve(m.nnz());

  for (index_t r = 0; r < m.nrows; ++r) {
    for (index_t p = m.row_ptr[r]; p < m.row_ptr[r + 1]; ++p) {
      const index_t off = m.col_idx[p] - r;
      if (!std::binary_search(sorted.begin(), sorted.end(), off)) {
        out.col_idx.push_back(m.col_idx[p]);
        out.val.push_back(m.val[p]);
      }
    }
    out.row_ptr[r + 1] = static_cast<index_t>(out.col_idx.size());
  }
  return out;
}

std::vector<real_t> diagonal_density(const Csr& m,
                                     std::span<const index_t> offsets) {
  std::vector<real_t> density;
  density.reserve(offsets.size());
  for (index_t off : offsets) {
    std::size_t filled = 0;
    for (index_t r = 0; r < m.nrows; ++r) {
      const index_t c = r + off;
      if (c >= 0 && c < m.ncols && m.at(r, c) != 0.0) ++filled;
    }
    const std::size_t slots = diagonal_slots(m.nrows, m.ncols, off);
    density.push_back(slots ? static_cast<real_t>(filled) /
                                  static_cast<real_t>(slots)
                            : 0.0);
  }
  return density;
}

void spmv(const Dia& m, std::span<const real_t> x, std::span<real_t> y) {
  std::fill(y.begin(), y.end(), 0.0);
  spmv_add(m, x, y);
}

void spmv_add(const Dia& m, std::span<const real_t> x, std::span<real_t> y) {
  assert(x.size() == static_cast<std::size_t>(m.ncols));
  assert(y.size() == static_cast<std::size_t>(m.nrows));
  // Row chunks on the util pool with the diagonals inside: one task per
  // y[r], which adds its diagonals in order — thread-count independent.
  const real_t* px = x.data();
  real_t* py = y.data();
  util::parallel_for(static_cast<std::size_t>(m.nrows),
                     [&m, px, py](std::size_t b, std::size_t e) {
    for (std::size_t di = 0; di < m.offsets.size(); ++di) {
      const index_t off = m.offsets[di];
      const real_t* band =
          m.data.data() + di * static_cast<std::size_t>(m.nrows);
      const index_t lo = std::max({index_t{0}, -off, static_cast<index_t>(b)});
      const index_t hi = std::min(
          {m.nrows, m.ncols - off, static_cast<index_t>(e)});
      for (index_t r = lo; r < hi; ++r) {
        py[r] += band[r] * px[r + off];
      }
    }
  });
}

}  // namespace cmesolve::sparse
