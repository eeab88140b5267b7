#include "la/csr_matrix.h"

#include "common/error.h"

namespace fusedml::la {

CsrMatrix::CsrMatrix(index_t rows, index_t cols,
                     std::vector<offset_t> row_off,
                     std::vector<index_t> col_idx, std::vector<real> values)
    : rows_(rows),
      cols_(cols),
      row_off_(std::move(row_off)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  FUSEDML_CHECK(rows_ >= 0 && cols_ >= 0, "negative matrix dimensions");
  FUSEDML_CHECK(row_off_.size() == static_cast<usize>(rows_) + 1,
                "row_off must have rows+1 entries");
  FUSEDML_CHECK(col_idx_.size() == values_.size(),
                "col_idx and values must have equal length");
  FUSEDML_CHECK(row_off_.front() == 0, "row_off[0] must be 0");
  FUSEDML_CHECK(row_off_.back() == static_cast<offset_t>(values_.size()),
                "row_off[rows] must equal nnz");
  for (usize r = 0; r < static_cast<usize>(rows_); ++r) {
    FUSEDML_CHECK(row_off_[r] <= row_off_[r + 1], "row_off must be monotone");
    for (offset_t i = row_off_[r]; i < row_off_[r + 1]; ++i) {
      const index_t c = col_idx_[static_cast<usize>(i)];
      FUSEDML_CHECK(c >= 0 && c < cols_, "column index out of range");
      if (i > row_off_[r]) {
        FUSEDML_CHECK(col_idx_[static_cast<usize>(i - 1)] < c,
                      "column indices must be strictly increasing per row");
      }
    }
  }
}

}  // namespace fusedml::la
