// Synthetic dataset generators.
//
// The paper evaluates on (a) randomly generated sparse matrices with 500k
// rows and sparsity 0.01 (§4.1), (b) the ultra-sparse KDD 2010 set
// (15,009,374 x 29,890,095; 423,865,484 nnz; ~28 nnz/row), and (c) the dense
// HIGGS set (11,000,000 x 28). KDD and HIGGS are not shipped here, so the
// *_like generators synthesize matrices with the properties the paper's
// arguments rest on (see DESIGN.md §1); both take a scale divisor so benches
// run at laptop scale by default.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "la/csr_matrix.h"
#include "la/dense_matrix.h"

namespace fusedml::la {

/// Random sparse CSR with ~`sparsity` fraction of non-zeros, uniformly
/// placed (per-row count is Poisson(n * sparsity), columns sampled without
/// replacement). Values uniform in [-1, 1).
CsrMatrix uniform_sparse(index_t rows, index_t cols, double sparsity,
                         std::uint64_t seed);

/// KDD2010-like ultra-sparse matrix: ~nnz_per_row non-zeros per row (the
/// real set averages ~28), column popularity following a power law
/// (skew > 0; larger = more skewed), n >> shared-memory capacity.
CsrMatrix kdd_like(index_t rows, index_t cols, double nnz_per_row,
                   double skew, std::uint64_t seed);

/// HIGGS-like dense matrix: tall, few columns (28 in the real set),
/// standard-normal features.
DenseMatrix higgs_like(index_t rows, index_t cols, std::uint64_t seed);

/// Dense uniform random matrix in [-1, 1).
DenseMatrix dense_random(index_t rows, index_t cols, std::uint64_t seed);

/// Random vector, uniform in [-1, 1).
std::vector<real> random_vector(usize n, std::uint64_t seed);

/// Labels for a linear-regression task: y = X*w_true + noise. Returns y;
/// w_true is uniform [-1,1) generated from the seed (retrievable via
/// regression_true_weights with the same seed).
std::vector<real> regression_labels(const CsrMatrix& X, std::uint64_t seed,
                                    double noise_stddev);
std::vector<real> regression_labels(const DenseMatrix& X, std::uint64_t seed,
                                    double noise_stddev);
std::vector<real> regression_true_weights(index_t cols, std::uint64_t seed);

/// ±1 labels for classification: sign(X*w_true + noise).
std::vector<real> classification_labels(const CsrMatrix& X,
                                        std::uint64_t seed,
                                        double noise_stddev);

}  // namespace fusedml::la
