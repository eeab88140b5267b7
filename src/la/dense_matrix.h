// Row-major dense matrix — the layout the paper's dense kernels assume.
#pragma once

#include <span>
#include <vector>

#include "common/error.h"
#include "common/types.h"
#include "la/checksums.h"

namespace fusedml::la {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(index_t rows, index_t cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<usize>(rows) * static_cast<usize>(cols), real{0}) {
    FUSEDML_CHECK(rows >= 0 && cols >= 0, "negative matrix dimensions");
  }
  DenseMatrix(index_t rows, index_t cols, std::vector<real> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    FUSEDML_CHECK(data_.size() == static_cast<usize>(rows) * static_cast<usize>(cols),
                  "data size does not match dimensions");
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }

  // The mutable accessors drop this copy's checksums, so take the
  // reference or span anew for each change made between two uses.
  real& at(index_t r, index_t c) {
    checksums_.drop();
    return data_[idx(r, c)];
  }
  real at(index_t r, index_t c) const { return data_[idx(r, c)]; }

  /// Row r as a contiguous span.
  std::span<real> row(index_t r) {
    checksums_.drop();
    return {data_.data() + idx(r, 0), static_cast<usize>(cols_)};
  }
  std::span<const real> row(index_t r) const {
    return {data_.data() + idx(r, 0), static_cast<usize>(cols_)};
  }

  std::span<real> data() {
    checksums_.drop();
    return data_;
  }
  std::span<const real> data() const { return data_; }

  usize bytes() const { return data_.size() * sizeof(real); }

  /// Equal shape and values; the checksums are not compared.
  bool operator==(const DenseMatrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_ && data_ == o.data_;
  }

  /// The checksums of this copy's values (kernels/abft.h).
  const Checksums& checksums() const { return checksums_; }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<real> data_;
  Checksums checksums_;

  usize idx(index_t r, index_t c) const {
    FUSEDML_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                  "dense index out of range");
    return static_cast<usize>(r) * static_cast<usize>(cols_) +
           static_cast<usize>(c);
  }
};

}  // namespace fusedml::la
