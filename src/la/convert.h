// Format conversions, including the explicit transpose (the host-side
// semantics of the csr2csc step the paper's cuSPARSE baseline relies on).
#pragma once

#include <memory>

#include "la/coo_matrix.h"
#include "la/csr_matrix.h"
#include "la/dense_matrix.h"

namespace fusedml::la {

/// Builds CSR from (normalized or not) COO triplets.
CsrMatrix coo_to_csr(const CooMatrix& coo);

/// Explicit transpose, the host-side semantics of cuSPARSE's csr2csc
/// (X in CSC is X^T in CSR): histogram over columns, exclusive scan,
/// scatter, written straight into X^T's CSR arrays. The result is kept on
/// csr (CsrMatrix::transposed), so later calls for the same values share
/// it instead of scattering again.
std::shared_ptr<const CsrMatrix> kept_transpose(const CsrMatrix& csr);

/// A fresh X^T, equal to kept_transpose(csr), that leaves csr's slot as it
/// was: a caller that owns the result (a runtime leaf, say) holds X^T once,
/// and csr does not keep a second copy alive.
CsrMatrix transpose(const CsrMatrix& csr);

/// Row-subset extraction: the rows listed in `rows` (strictly increasing),
/// in order. Used by the SVM primal solver to restrict the pattern to the
/// current support vectors.
CsrMatrix select_rows(const CsrMatrix& csr, std::span<const index_t> rows);

DenseMatrix csr_to_dense(const CsrMatrix& csr);
CsrMatrix dense_to_csr(const DenseMatrix& dense, real zero_tolerance = 0.0);
DenseMatrix transpose(const DenseMatrix& dense);

}  // namespace fusedml::la
