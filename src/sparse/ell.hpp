#pragma once
//
// ELLPACK (ELL) format, GPU layout (Sec. V of the paper).
//
// A sparse n x m matrix with at most k nonzeros per row is stored as two
// dense n' x k arrays (values + column indices) in column-major order so
// that 32 consecutive rows — one warp — read consecutive addresses.
// n' pads the row count to a multiple of the warp size for 128-byte
// alignment. Rows shorter than k are padded with `kPadColumn` slots; the
// kernel skips the x-gather for those (Listing 1 of the paper).
//
#include <cstddef>
#include <span>

#include "sparse/csr.hpp"
#include "util/types.hpp"

namespace cmesolve::sparse {

struct Ell {
  index_t nrows = 0;   ///< logical rows
  index_t ncols = 0;
  index_t padded_rows = 0;  ///< n' = ceil(nrows / warp) * warp
  index_t k = 0;            ///< max nonzeros per row
  std::size_t nnz = 0;      ///< real nonzeros (excluding padding)
  /// Column-major value array of size padded_rows * k:
  /// element (r, j) lives at val[j * padded_rows + r].
  std::vector<real_t> val;
  /// Matching column-index array; kPadColumn marks padding slots.
  std::vector<index_t> col;

  /// Data-structure efficiency e = nnz / (n' * k), Sec. V.
  [[nodiscard]] real_t efficiency() const noexcept {
    const auto slots = static_cast<real_t>(padded_rows) * static_cast<real_t>(k);
    return slots > 0 ? static_cast<real_t>(nnz) / slots : 1.0;
  }

  /// Device-memory footprint: 8-byte value + 4-byte column per slot.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return val.size() * sizeof(real_t) + col.size() * sizeof(index_t);
  }
};

/// Build ELL from CSR. `warp` controls the row padding granularity.
[[nodiscard]] Ell ell_from_csr(const Csr& m, index_t warp = 32);

/// y = m * x (CPU reference, row chunks on the util thread pool).
void spmv(const Ell& m, std::span<const real_t> x, std::span<real_t> y);

}  // namespace cmesolve::sparse
