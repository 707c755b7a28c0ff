#pragma once
//
// Compressed Sparse Row (CSR): the canonical interchange format.
//
// Every specialized GPU format (ELL, DIA, sliced/warped ELL, hybrids) is
// built from a CSR matrix; the CPU baseline solver (the paper's "Intel MKL"
// comparator) runs directly on CSR(+DIA).
//
#include <cstddef>
#include <span>
#include <vector>

#include "sparse/coo.hpp"
#include "util/types.hpp"

namespace cmesolve::sparse {

struct Csr {
  index_t nrows = 0;
  index_t ncols = 0;
  /// Size nrows+1; row r occupies [row_ptr[r], row_ptr[r+1]).
  std::vector<index_t> row_ptr;
  /// Column indices, sorted ascending within each row.
  std::vector<index_t> col_idx;
  std::vector<real_t> val;

  [[nodiscard]] std::size_t nnz() const noexcept { return val.size(); }
  [[nodiscard]] index_t row_length(index_t r) const noexcept {
    return row_ptr[r + 1] - row_ptr[r];
  }
  [[nodiscard]] index_t max_row_length() const noexcept;

  /// Value at (r, c), or 0 when the position is structurally zero.
  [[nodiscard]] real_t at(index_t r, index_t c) const noexcept;

  /// Maximum absolute row sum ||A||_inf (stopping criterion of Sec. IV).
  [[nodiscard]] real_t inf_norm() const noexcept;
};

/// Build CSR from (possibly unsorted, possibly duplicated) COO triplets.
[[nodiscard]] Csr csr_from_coo(Coo coo);

/// Back-conversion, canonical row-major order.
[[nodiscard]] Coo coo_from_csr(const Csr& m);

/// Transpose (used to move between "columns sum to zero" generator layout
/// and row-oriented kernels).
[[nodiscard]] Csr transpose(const Csr& m);

/// Split `m` into its diagonal (as a dense vector, zero where the diagonal
/// entry is structurally absent) and the strictly off-diagonal remainder.
struct DiagonalSplit {
  std::vector<real_t> diag;
  Csr offdiag;
};
[[nodiscard]] DiagonalSplit split_diagonal(const Csr& m);

/// Reference SpMV: y = m * x, row chunks on the util thread pool.
void spmv(const Csr& m, std::span<const real_t> x, std::span<real_t> y);

}  // namespace cmesolve::sparse
