#include "la/convert.h"

#include <cmath>

#include "common/error.h"

namespace fusedml::la {

CsrMatrix coo_to_csr(const CooMatrix& coo_in) {
  CooMatrix coo = coo_in;  // normalize works in place; keep caller's intact
  coo.normalize();
  const index_t rows = coo.rows();
  std::vector<offset_t> row_off(static_cast<usize>(rows) + 1, 0);
  for (const auto& t : coo.triplets()) {
    ++row_off[static_cast<usize>(t.row) + 1];
  }
  for (usize r = 0; r < static_cast<usize>(rows); ++r) {
    row_off[r + 1] += row_off[r];
  }
  std::vector<index_t> col_idx;
  std::vector<real> values;
  col_idx.reserve(coo.triplets().size());
  values.reserve(coo.triplets().size());
  for (const auto& t : coo.triplets()) {
    col_idx.push_back(t.col);
    values.push_back(t.value);
  }
  return CsrMatrix(rows, coo.cols(), std::move(row_off), std::move(col_idx),
                   std::move(values));
}

namespace {
CsrMatrix scatter_transpose(const CsrMatrix& csr) {
  const usize nnz = static_cast<usize>(csr.nnz());
  // Histogram: row c of X^T holds column c's entries.
  std::vector<offset_t> row_off(static_cast<usize>(csr.cols()) + 1, 0);
  for (usize i = 0; i < nnz; ++i) {
    ++row_off[static_cast<usize>(csr.col_idx()[i]) + 1];
  }
  // Exclusive scan.
  for (usize c = 0; c < static_cast<usize>(csr.cols()); ++c) {
    row_off[c + 1] += row_off[c];
  }
  // Scatter. X's rows are walked in increasing order, so each row of X^T
  // lists its columns in increasing order.
  std::vector<index_t> col_idx(nnz);
  std::vector<real> values(nnz);
  std::vector<offset_t> cursor(row_off.begin(), row_off.end() - 1);
  for (index_t r = 0; r < csr.rows(); ++r) {
    for (offset_t i = csr.row_begin(r); i < csr.row_end(r); ++i) {
      const index_t c = csr.col_idx()[static_cast<usize>(i)];
      const offset_t dst = cursor[static_cast<usize>(c)]++;
      col_idx[static_cast<usize>(dst)] = r;
      values[static_cast<usize>(dst)] = csr.values()[static_cast<usize>(i)];
    }
  }
  return CsrMatrix(csr.cols(), csr.rows(), std::move(row_off),
                   std::move(col_idx), std::move(values));
}
}  // namespace

std::shared_ptr<const CsrMatrix> kept_transpose(const CsrMatrix& csr) {
  return csr.transposed([&] { return scatter_transpose(csr); });
}

CsrMatrix transpose(const CsrMatrix& csr) { return scatter_transpose(csr); }

CsrMatrix select_rows(const CsrMatrix& csr, std::span<const index_t> rows) {
  std::vector<offset_t> row_off(rows.size() + 1, 0);
  std::vector<index_t> col_idx;
  std::vector<real> values;
  for (usize i = 0; i < rows.size(); ++i) {
    const index_t r = rows[i];
    FUSEDML_CHECK(r >= 0 && r < csr.rows(), "row selection out of range");
    if (i > 0) {
      FUSEDML_CHECK(rows[i - 1] < r, "row selection must be increasing");
    }
    for (offset_t k = csr.row_begin(r); k < csr.row_end(r); ++k) {
      col_idx.push_back(csr.col_idx()[static_cast<usize>(k)]);
      values.push_back(csr.values()[static_cast<usize>(k)]);
    }
    row_off[i + 1] = static_cast<offset_t>(col_idx.size());
  }
  return CsrMatrix(static_cast<index_t>(rows.size()), csr.cols(),
                   std::move(row_off), std::move(col_idx), std::move(values));
}

DenseMatrix csr_to_dense(const CsrMatrix& csr) {
  DenseMatrix out(csr.rows(), csr.cols());
  for (index_t r = 0; r < csr.rows(); ++r) {
    for (offset_t i = csr.row_begin(r); i < csr.row_end(r); ++i) {
      out.at(r, csr.col_idx()[static_cast<usize>(i)]) =
          csr.values()[static_cast<usize>(i)];
    }
  }
  return out;
}

CsrMatrix dense_to_csr(const DenseMatrix& dense, real zero_tolerance) {
  CooMatrix coo(dense.rows(), dense.cols());
  for (index_t r = 0; r < dense.rows(); ++r) {
    for (index_t c = 0; c < dense.cols(); ++c) {
      const real v = dense.at(r, c);
      if (std::abs(v) > zero_tolerance) coo.add(r, c, v);
    }
  }
  return coo_to_csr(coo);
}

DenseMatrix transpose(const DenseMatrix& dense) {
  DenseMatrix out(dense.cols(), dense.rows());
  for (index_t r = 0; r < dense.rows(); ++r) {
    for (index_t c = 0; c < dense.cols(); ++c) {
      out.at(c, r) = dense.at(r, c);
    }
  }
  return out;
}

}  // namespace fusedml::la
