#include "la/generate.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.h"
#include "la/vector_ops.h"

namespace fusedml::la {

namespace {

/// Every generator's shape guard: sizes reach here straight from bench and
/// example flags (--rows / --cols), so a bad one must fail with a message
/// naming it rather than as an allocator error deep inside std::vector.
void check_shape(index_t rows, index_t cols) {
  FUSEDML_CHECK(rows >= 1, "rows must be >= 1, got " + std::to_string(rows));
  FUSEDML_CHECK(cols >= 1, "cols must be >= 1, got " + std::to_string(cols));
}

}  // namespace

CsrMatrix uniform_sparse(index_t rows, index_t cols, double sparsity,
                         std::uint64_t seed) {
  check_shape(rows, cols);
  FUSEDML_CHECK(sparsity >= 0.0 && sparsity <= 1.0,
                "sparsity must be in [0,1]");
  Rng rng(seed);
  std::vector<offset_t> row_off(static_cast<usize>(rows) + 1, 0);
  std::vector<index_t> col_idx;
  std::vector<real> values;
  const double lambda = sparsity * static_cast<double>(cols);
  col_idx.reserve(static_cast<usize>(lambda * rows * 1.1));
  values.reserve(col_idx.capacity());
  for (index_t r = 0; r < rows; ++r) {
    const auto k = static_cast<index_t>(
        std::min<std::uint64_t>(rng.poisson(lambda), cols));
    const auto cols_of_row = rng.sample_without_replacement(cols, k);
    for (index_t c : cols_of_row) {
      col_idx.push_back(c);
      values.push_back(rng.uniform(-1.0, 1.0));
    }
    row_off[static_cast<usize>(r) + 1] =
        static_cast<offset_t>(col_idx.size());
  }
  return CsrMatrix(rows, cols, std::move(row_off), std::move(col_idx),
                   std::move(values));
}

CsrMatrix kdd_like(index_t rows, index_t cols, double nnz_per_row,
                   double skew, std::uint64_t seed) {
  check_shape(rows, cols);
  FUSEDML_CHECK(nnz_per_row >= 0.0, "nnz_per_row must be non-negative");
  FUSEDML_CHECK(skew >= 0.0, "skew must be non-negative");
  Rng rng(seed);
  std::vector<offset_t> row_off(static_cast<usize>(rows) + 1, 0);
  std::vector<index_t> col_idx;
  std::vector<real> values;
  col_idx.reserve(static_cast<usize>(nnz_per_row * rows * 1.1));
  values.reserve(col_idx.capacity());
  std::vector<index_t> row_cols;
  for (index_t r = 0; r < rows; ++r) {
    const auto k = static_cast<index_t>(
        std::min<std::uint64_t>(rng.poisson(nnz_per_row), cols));
    row_cols.clear();
    for (index_t j = 0; j < k; ++j) {
      // Inverse-power-law column draw: u^(1+skew) concentrates mass near 0
      // the way feature popularity concentrates in the real KDD features.
      const double u = rng.uniform();
      const auto c = static_cast<index_t>(
          std::min<double>(static_cast<double>(cols) - 1.0,
                           std::pow(u, 1.0 + skew) * static_cast<double>(cols)));
      row_cols.push_back(c);
    }
    std::sort(row_cols.begin(), row_cols.end());
    row_cols.erase(std::unique(row_cols.begin(), row_cols.end()),
                   row_cols.end());
    for (index_t c : row_cols) {
      col_idx.push_back(c);
      values.push_back(rng.uniform(-1.0, 1.0));
    }
    row_off[static_cast<usize>(r) + 1] =
        static_cast<offset_t>(col_idx.size());
  }
  return CsrMatrix(rows, cols, std::move(row_off), std::move(col_idx),
                   std::move(values));
}

DenseMatrix higgs_like(index_t rows, index_t cols, std::uint64_t seed) {
  check_shape(rows, cols);
  Rng rng(seed);
  DenseMatrix out(rows, cols);
  for (real& v : out.data()) v = rng.normal();
  return out;
}

DenseMatrix dense_random(index_t rows, index_t cols, std::uint64_t seed) {
  check_shape(rows, cols);
  Rng rng(seed);
  DenseMatrix out(rows, cols);
  for (real& v : out.data()) v = rng.uniform(-1.0, 1.0);
  return out;
}

std::vector<real> random_vector(usize n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real> out(n);
  for (real& v : out) v = rng.uniform(-1.0, 1.0);
  return out;
}

std::vector<real> regression_true_weights(index_t cols, std::uint64_t seed) {
  return random_vector(static_cast<usize>(cols), seed ^ 0xfeedfaceULL);
}

std::vector<real> regression_labels(const CsrMatrix& X, std::uint64_t seed,
                                    double noise_stddev) {
  const auto w = regression_true_weights(X.cols(), seed);
  auto y = reference::spmv(X, w);
  Rng rng(seed ^ 0xabcdef12ULL);
  for (real& v : y) v += rng.normal(0.0, noise_stddev);
  return y;
}

std::vector<real> regression_labels(const DenseMatrix& X, std::uint64_t seed,
                                    double noise_stddev) {
  const auto w = regression_true_weights(X.cols(), seed);
  auto y = reference::gemv(X, w);
  Rng rng(seed ^ 0xabcdef12ULL);
  for (real& v : y) v += rng.normal(0.0, noise_stddev);
  return y;
}

std::vector<real> classification_labels(const CsrMatrix& X,
                                        std::uint64_t seed,
                                        double noise_stddev) {
  auto y = regression_labels(X, seed, noise_stddev);
  for (real& v : y) v = v >= 0 ? real{1} : real{-1};
  return y;
}

}  // namespace fusedml::la
