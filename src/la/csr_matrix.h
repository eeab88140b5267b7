// Compressed Sparse Row storage — the format the paper's sparse kernels
// (and cuSPARSE) operate on: (values, col_idx, row_off).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/types.h"
#include "la/checksums.h"

namespace fusedml::la {

/// Load transactions of one warp's sweep over its consecutive rows under
/// the CSR-vector mapping: the values pass, the col_idx pass and the
/// y[col_idx] gather. They depend only on the structure and VS.
struct WarpSweep {
  std::uint64_t values = 0;
  std::uint64_t cols = 0;
  std::uint64_t gather = 0;
};

/// One WarpSweep per warp, warp w covering rows [w*32/VS, (w+1)*32/VS).
using WarpTable = std::vector<WarpSweep>;

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Takes ownership of the three CSR arrays. Validates structure:
  /// row_off has rows+1 monotone entries, col indices in range and
  /// strictly increasing within each row.
  CsrMatrix(index_t rows, index_t cols, std::vector<offset_t> row_off,
            std::vector<index_t> col_idx, std::vector<real> values);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  offset_t nnz() const { return static_cast<offset_t>(values_.size()); }

  std::span<const offset_t> row_off() const { return row_off_; }
  std::span<const index_t> col_idx() const { return col_idx_; }
  std::span<const real> values() const { return values_; }
  /// Mutable values. Drops this copy's checksums and transpose, so take
  /// the span anew for each change made between two uses of the matrix.
  std::span<real> values_mut() {
    checksums_.drop();
    transposed_.drop();
    return values_;
  }

  /// Non-zeros of row r: [row_off[r], row_off[r+1]).
  offset_t row_begin(index_t r) const { return row_off_[static_cast<usize>(r)]; }
  offset_t row_end(index_t r) const { return row_off_[static_cast<usize>(r) + 1]; }
  index_t row_nnz(index_t r) const {
    return static_cast<index_t>(row_end(r) - row_begin(r));
  }

  /// Mean non-zeros per row (mu in Eq. 4). 0 for an empty matrix.
  double mean_nnz_per_row() const {
    return rows_ == 0 ? 0.0
                      : static_cast<double>(nnz()) / static_cast<double>(rows_);
  }

  /// Device footprint: values (8B) + col_idx (4B) + row_off (8B each).
  usize bytes() const {
    return values_.size() * sizeof(real) + col_idx_.size() * sizeof(index_t) +
           row_off_.size() * sizeof(offset_t);
  }

  /// Equal shape, structure and values; warp tables and checksums are not
  /// compared.
  bool operator==(const CsrMatrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_ && row_off_ == o.row_off_ &&
           col_idx_ == o.col_idx_ && values_ == o.values_;
  }

  /// The warp table for vector size `vs` (a power of two, 1..32), made by
  /// `build()` on first use; `*built` says whether this call made it. The
  /// table describes row_off and col_idx, which never change after
  /// construction, so every copy of this matrix shares it (values_mut()
  /// keeps it) and it is freed with the last copy. One lock per call.
  template <typename Build>
  const WarpTable& warp_table(int vs, Build&& build, bool* built) const {
    FUSEDML_CHECK(
        vs >= 1 && vs <= 32 && std::has_single_bit(static_cast<unsigned>(vs)),
        "sparse vector size must be a power of two in [1, 32], got " +
            std::to_string(vs));
    std::unique_ptr<const WarpTable>& slot =
        tables_->by_vs[static_cast<usize>(std::countr_zero(
            static_cast<unsigned>(vs)))];
    const std::lock_guard<std::mutex> lock(tables_->mutex);
    *built = slot == nullptr;
    if (*built) slot = std::make_unique<const WarpTable>(build());
    return *slot;
  }

  /// The checksums of this copy's values (kernels/abft.h).
  const Checksums& checksums() const { return checksums_; }

  /// X^T, made by `build()` on first use (la::kept_transpose) and kept under
  /// the checksum rule: copies share it and values_mut() drops it. X^T's
  /// own warp tables then live as long as it does.
  template <typename Build>
  std::shared_ptr<const CsrMatrix> transposed(Build&& build) const {
    return transposed_.get(std::forward<Build>(build));
  }

 private:
  struct WarpTables {
    std::mutex mutex;
    std::array<std::unique_ptr<const WarpTable>, 6> by_vs;  ///< log2(VS)
  };

  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<offset_t> row_off_;
  std::vector<index_t> col_idx_;
  std::vector<real> values_;
  std::shared_ptr<WarpTables> tables_ = std::make_shared<WarpTables>();
  Checksums checksums_;
  DerivedSlot<CsrMatrix> transposed_;
};

}  // namespace fusedml::la
