// Correctness oracles written with plain loops over the matrix arrays.
// They share no code with the library paths they check (no registry, no
// kernels, no la helpers beyond the storage accessors).
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "la/csr_matrix.h"
#include "la/dense_matrix.h"

namespace perfbench {

using fusedml::real;

/// ||X^T y - (X^T X w + eps w)|| / ||X^T y||: the relative residual of the
/// regularised normal equations lr-cg solves.
double lr_cg_relative_residual(const fusedml::la::CsrMatrix& X,
                               std::span<const real> y,
                               std::span<const real> w, real eps);

/// Equation 1: alpha * X^T (v ⊙ (X y)) + beta * z (v, z may be empty).
std::vector<real> equation1(const fusedml::la::CsrMatrix& X, real alpha,
                            std::span<const real> v, std::span<const real> y,
                            real beta, std::span<const real> z);
std::vector<real> equation1(const fusedml::la::DenseMatrix& X, real alpha,
                            std::span<const real> v, std::span<const real> y,
                            real beta, std::span<const real> z);

bool bit_equal(std::span<const real> a, std::span<const real> b);

/// max_i |a_i - b_i| / max(1, max_i |b_i|); infinity on a size mismatch or
/// a non-finite entry.
double max_scaled_diff(std::span<const real> a, std::span<const real> b);

}  // namespace perfbench
