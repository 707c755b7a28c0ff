#include "sparse/ell.hpp"

#include <cassert>

#include "util/parallel.hpp"

namespace cmesolve::sparse {

Ell ell_from_csr(const Csr& m, index_t warp) {
  assert(warp > 0);
  Ell e;
  e.nrows = m.nrows;
  e.ncols = m.ncols;
  e.padded_rows = ((m.nrows + warp - 1) / warp) * warp;
  e.k = m.max_row_length();
  e.nnz = m.nnz();

  const std::size_t slots =
      static_cast<std::size_t>(e.padded_rows) * static_cast<std::size_t>(e.k);
  e.val.assign(slots, 0.0);
  e.col.assign(slots, kPadColumn);

  for (index_t r = 0; r < m.nrows; ++r) {
    index_t j = 0;
    for (index_t p = m.row_ptr[r]; p < m.row_ptr[r + 1]; ++p, ++j) {
      const std::size_t slot =
          static_cast<std::size_t>(j) * e.padded_rows + static_cast<std::size_t>(r);
      e.val[slot] = m.val[p];
      e.col[slot] = m.col_idx[p];
    }
  }
  return e;
}

void spmv(const Ell& m, std::span<const real_t> x, std::span<real_t> y) {
  assert(x.size() == static_cast<std::size_t>(m.ncols));
  assert(y.size() == static_cast<std::size_t>(m.nrows));
  // Row chunks on the util pool, thread-count independent (one task per
  // y[r]).
  const real_t* va = m.val.data();
  const index_t* co = m.col.data();
  const real_t* px = x.data();
  real_t* py = y.data();
  const index_t k = m.k;
  const std::size_t stride = static_cast<std::size_t>(m.padded_rows);
  util::parallel_for(static_cast<std::size_t>(m.nrows),
                     [va, co, px, py, k, stride](std::size_t b, std::size_t e) {
    for (std::size_t r = b; r < e; ++r) {
      real_t sum = 0.0;
      for (index_t j = 0; j < k; ++j) {
        const std::size_t slot = static_cast<std::size_t>(j) * stride + r;
        const index_t c = co[slot];
        if (c > kPadColumn) {  // padding-skip conditional (Listing 1)
          sum += va[slot] * px[c];
        }
      }
      py[r] = sum;
    }
  });
}

}  // namespace cmesolve::sparse
