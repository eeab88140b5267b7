// One reference type for both matrix storages, and the entry visitor the
// storage-generic layers (the op registry, the ABFT verifier, the CPU
// backend) loop through. Code that really differs by storage asks the
// reference which storage it holds; everything else is written once.
#pragma once

#include <cstdint>
#include <variant>

#include "common/types.h"
#include "la/csr_matrix.h"
#include "la/dense_matrix.h"

namespace fusedml::la {

/// Calls f(r, k, c, x) for every stored entry x = X(r, c), in storage order:
/// row by row, columns ascending. k is the entry's index in X.values().
template <typename F>
void for_each_entry(const CsrMatrix& X, F&& f) {
  const auto vals = X.values();
  const auto cols = X.col_idx();
  for (index_t r = 0; r < X.rows(); ++r) {
    for (offset_t p = X.row_begin(r); p < X.row_end(r); ++p) {
      const auto k = static_cast<usize>(p);
      f(r, k, cols[k], vals[k]);
    }
  }
}

/// Dense X stores every (r, c): k = r * cols + c, the index in X.data().
template <typename F>
void for_each_entry(const DenseMatrix& X, F&& f) {
  const auto vals = X.data();
  usize k = 0;
  for (index_t r = 0; r < X.rows(); ++r) {
    for (index_t c = 0; c < X.cols(); ++c, ++k) f(r, k, c, vals[k]);
  }
}

/// A non-owning reference to a CSR or a dense matrix. It converts from
/// either, so one function taking it serves both storages. It must not
/// outlive the matrix it refers to.
class MatrixRef {
 public:
  MatrixRef(const CsrMatrix& X) : m_(&X) {}
  MatrixRef(const DenseMatrix& X) : m_(&X) {}

  /// The CSR matrix, or null when the storage is dense.
  const CsrMatrix* csr() const {
    const auto* p = std::get_if<const CsrMatrix*>(&m_);
    return p != nullptr ? *p : nullptr;
  }
  /// The dense matrix, or null when the storage is CSR.
  const DenseMatrix* dense() const {
    const auto* p = std::get_if<const DenseMatrix*>(&m_);
    return p != nullptr ? *p : nullptr;
  }
  bool sparse() const { return csr() != nullptr; }

  /// f(X) with X the referenced CsrMatrix or DenseMatrix.
  template <typename F>
  decltype(auto) visit(F&& f) const {
    return std::visit([&](const auto* X) -> decltype(auto) { return f(*X); },
                      m_);
  }

  index_t rows() const {
    return visit([](const auto& X) { return X.rows(); });
  }
  index_t cols() const {
    return visit([](const auto& X) { return X.cols(); });
  }
  /// Stored entries: nnz for CSR, rows * cols for dense.
  std::uint64_t entries() const {
    return sparse() ? static_cast<std::uint64_t>(csr()->nnz())
                    : static_cast<std::uint64_t>(dense()->data().size());
  }
  const Checksums& checksums() const {
    return visit([](const auto& X) -> const Checksums& {
      return X.checksums();
    });
  }

  /// la::for_each_entry over the referenced matrix.
  template <typename F>
  void for_each_entry(F&& f) const {
    visit([&](const auto& X) { la::for_each_entry(X, f); });
  }

 private:
  std::variant<const CsrMatrix*, const DenseMatrix*> m_;
};

}  // namespace fusedml::la
