#pragma once
//
// Coordinate (COO) sparse format: the triplet format of Matrix Market
// input, the synthetic generators and small hand-built matrices. COO
// collects (row, col, value) triplets and is then converted to CSR (the
// canonical interchange format of this library). CME generators do not go
// through it: core/rate_matrix.cpp builds their CSR column by column.
//
#include <cstddef>
#include <vector>

#include "util/types.hpp"

namespace cmesolve::sparse {

struct Coo {
  index_t nrows = 0;
  index_t ncols = 0;
  std::vector<index_t> row;
  std::vector<index_t> col;
  std::vector<real_t> val;

  [[nodiscard]] std::size_t nnz() const noexcept { return val.size(); }

  /// Append one entry. Duplicates are allowed and are summed by
  /// `sort_and_combine`, in an unspecified order.
  void add(index_t r, index_t c, real_t v) {
    row.push_back(r);
    col.push_back(c);
    val.push_back(v);
  }

  void reserve(std::size_t n) {
    row.reserve(n);
    col.reserve(n);
    val.reserve(n);
  }

  /// Sort entries row-major (row, then col) and sum duplicates in place.
  void sort_and_combine();

  /// True when entries are sorted row-major with no duplicates.
  [[nodiscard]] bool is_canonical() const noexcept;
};

}  // namespace cmesolve::sparse
