#include "sparse/csr.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/parallel.hpp"

namespace cmesolve::sparse {

index_t Csr::max_row_length() const noexcept {
  index_t k = 0;
  for (index_t r = 0; r < nrows; ++r) k = std::max(k, row_length(r));
  return k;
}

real_t Csr::at(index_t r, index_t c) const noexcept {
  const auto begin = col_idx.begin() + row_ptr[r];
  const auto end = col_idx.begin() + row_ptr[r + 1];
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0;
  return val[static_cast<std::size_t>(it - col_idx.begin())];
}

real_t Csr::inf_norm() const noexcept {
  real_t best = 0.0;
  for (index_t r = 0; r < nrows; ++r) {
    real_t sum = 0.0;
    for (index_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
      sum += std::abs(val[p]);
    }
    best = std::max(best, sum);
  }
  return best;
}

Csr csr_from_coo(Coo coo) {
  coo.sort_and_combine();

  Csr m;
  m.nrows = coo.nrows;
  m.ncols = coo.ncols;
  m.row_ptr.assign(static_cast<std::size_t>(coo.nrows) + 1, 0);
  const std::size_t nnz = coo.nnz();  // hoisted: nnz() re-derives the size
  m.col_idx.resize(nnz);
  m.val.resize(nnz);

  for (std::size_t i = 0; i < nnz; ++i) {
    if (coo.row[i] < 0 || coo.row[i] >= coo.nrows || coo.col[i] < 0 ||
        coo.col[i] >= coo.ncols) {
      throw std::out_of_range("csr_from_coo: entry outside matrix bounds");
    }
    ++m.row_ptr[coo.row[i] + 1];
  }
  for (index_t r = 0; r < m.nrows; ++r) {
    m.row_ptr[r + 1] += m.row_ptr[r];
  }
  // Entries are already sorted row-major, so a single pass fills in order.
  for (std::size_t i = 0; i < nnz; ++i) {
    m.col_idx[i] = coo.col[i];
    m.val[i] = coo.val[i];
  }
#ifndef NDEBUG
  // Single-pass fill invariant: sort_and_combine left each row's columns
  // strictly increasing, so every CSR row must come out sorted and
  // duplicate-free.
  for (index_t r = 0; r < m.nrows; ++r) {
    const index_t pe = m.row_ptr[r + 1];
    for (index_t p = m.row_ptr[r] + 1; p < pe; ++p) {
      assert(m.col_idx[p - 1] < m.col_idx[p]);
    }
  }
#endif
  return m;
}

Coo coo_from_csr(const Csr& m) {
  Coo coo;
  coo.nrows = m.nrows;
  coo.ncols = m.ncols;
  coo.reserve(m.nnz());
  for (index_t r = 0; r < m.nrows; ++r) {
    for (index_t p = m.row_ptr[r]; p < m.row_ptr[r + 1]; ++p) {
      coo.add(r, m.col_idx[p], m.val[p]);
    }
  }
  return coo;
}

Csr transpose(const Csr& m) {
  Csr t;
  t.nrows = m.ncols;
  t.ncols = m.nrows;
  t.row_ptr.assign(static_cast<std::size_t>(m.ncols) + 1, 0);
  const std::size_t nnz = m.nnz();  // hoisted: nnz() re-derives the size
  t.col_idx.resize(nnz);
  t.val.resize(nnz);

  for (std::size_t i = 0; i < nnz; ++i) {
    ++t.row_ptr[m.col_idx[i] + 1];
  }
  for (index_t c = 0; c < t.nrows; ++c) {
    t.row_ptr[c + 1] += t.row_ptr[c];
  }
  std::vector<index_t> cursor(t.row_ptr.begin(), t.row_ptr.end() - 1);
  for (index_t r = 0; r < m.nrows; ++r) {
    const index_t pe = m.row_ptr[r + 1];  // cached: row end is loop-invariant
    for (index_t p = m.row_ptr[r]; p < pe; ++p) {
      const index_t c = m.col_idx[p];
      const index_t slot = cursor[c]++;
      t.col_idx[slot] = r;
      t.val[slot] = m.val[p];
    }
  }
#ifndef NDEBUG
  // Scatter invariant: source rows are visited in increasing order, so each
  // transposed row's columns must come out strictly increasing (sorted,
  // duplicate-free input rows stay that way through the cursor scatter).
  for (index_t r = 0; r < t.nrows; ++r) {
    const index_t pe = t.row_ptr[r + 1];
    for (index_t p = t.row_ptr[r] + 1; p < pe; ++p) {
      assert(t.col_idx[p - 1] < t.col_idx[p]);
    }
  }
#endif
  return t;
}

DiagonalSplit split_diagonal(const Csr& m) {
  DiagonalSplit out;
  out.diag.assign(static_cast<std::size_t>(m.nrows), 0.0);

  Csr& off = out.offdiag;
  off.nrows = m.nrows;
  off.ncols = m.ncols;
  off.row_ptr.assign(static_cast<std::size_t>(m.nrows) + 1, 0);
  off.col_idx.reserve(m.nnz());
  off.val.reserve(m.nnz());

  for (index_t r = 0; r < m.nrows; ++r) {
    for (index_t p = m.row_ptr[r]; p < m.row_ptr[r + 1]; ++p) {
      if (m.col_idx[p] == r) {
        out.diag[r] = m.val[p];
      } else {
        off.col_idx.push_back(m.col_idx[p]);
        off.val.push_back(m.val[p]);
      }
    }
    off.row_ptr[r + 1] = static_cast<index_t>(off.col_idx.size());
  }
  return out;
}

void spmv(const Csr& m, std::span<const real_t> x, std::span<real_t> y) {
  assert(x.size() == static_cast<std::size_t>(m.ncols));
  assert(y.size() == static_cast<std::size_t>(m.nrows));
  // Row chunks on the util pool: each y[r] is produced by exactly one task,
  // summed in row order, so the result is independent of the thread count.
  // The array bases are hoisted so the inner loop vectorizes.
  const index_t* rp = m.row_ptr.data();
  const index_t* ci = m.col_idx.data();
  const real_t* va = m.val.data();
  const real_t* px = x.data();
  real_t* py = y.data();
  util::parallel_for(static_cast<std::size_t>(m.nrows),
                     [rp, ci, va, px, py](std::size_t b, std::size_t e) {
    for (index_t r = static_cast<index_t>(b); r < static_cast<index_t>(e);
         ++r) {
      real_t sum = 0.0;
      for (index_t p = rp[r]; p < rp[r + 1]; ++p) {
        sum += va[p] * px[ci[p]];
      }
      py[r] = sum;
    }
  });
}

}  // namespace cmesolve::sparse
