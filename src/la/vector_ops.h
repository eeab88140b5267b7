// Host-side (single-thread) vector and matrix-vector operations.
//
// These are (a) the BLAS-1 set the LR-CG script of Listing 1 needs on the
// CPU, and (b) the bit-exact correctness oracles every device kernel is
// tested against (reference::*).
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "la/csr_matrix.h"
#include "la/dense_matrix.h"

namespace fusedml::la {

// --- BLAS-1 --------------------------------------------------------------

/// y += alpha * x
void axpy(real alpha, std::span<const real> x, std::span<real> y);
/// x *= alpha
void scal(real alpha, std::span<real> x);
real dot(std::span<const real> x, std::span<const real> y);
real nrm2(std::span<const real> x);
/// out[i] = x[i] * y[i]
void ewise_mul(std::span<const real> x, std::span<const real> y,
               std::span<real> out);

// --- Reference matrix-vector products (oracles) --------------------------

namespace reference {

/// out = X * y (sparse)
std::vector<real> spmv(const CsrMatrix& X, std::span<const real> y);
/// out = X^T * y (sparse)
std::vector<real> spmv_transposed(const CsrMatrix& X, std::span<const real> y);
/// out = X * y (dense)
std::vector<real> gemv(const DenseMatrix& X, std::span<const real> y);
/// out = X^T * y (dense)
std::vector<real> gemv_transposed(const DenseMatrix& X,
                                  std::span<const real> y);

/// The full generic pattern of Equation 1:
///   w = alpha * X^T * (v ⊙ (X * y)) + beta * z
/// `v` may be empty (treated as all-ones); `z` may be empty (treated as 0).
std::vector<real> pattern(real alpha, const CsrMatrix& X,
                          std::span<const real> v, std::span<const real> y,
                          real beta, std::span<const real> z);
std::vector<real> pattern(real alpha, const DenseMatrix& X,
                          std::span<const real> v, std::span<const real> y,
                          real beta, std::span<const real> z);

}  // namespace reference

/// Max |a-b| over two equal-length vectors; used in tests/benches to verify
/// device results against references.
real max_abs_diff(std::span<const real> a, std::span<const real> b);

}  // namespace fusedml::la
