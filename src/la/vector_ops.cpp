#include "la/vector_ops.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace fusedml::la {

void axpy(real alpha, std::span<const real> x, std::span<real> y) {
  FUSEDML_CHECK(x.size() == y.size(), "axpy size mismatch");
  for (usize i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scal(real alpha, std::span<real> x) {
  for (real& v : x) v *= alpha;
}

real dot(std::span<const real> x, std::span<const real> y) {
  FUSEDML_CHECK(x.size() == y.size(), "dot size mismatch");
  real s = 0;
  for (usize i = 0; i < x.size(); ++i) s += x[i] * y[i];
  return s;
}

real nrm2(std::span<const real> x) { return std::sqrt(dot(x, x)); }

void ewise_mul(std::span<const real> x, std::span<const real> y,
               std::span<real> out) {
  FUSEDML_CHECK(x.size() == y.size() && x.size() == out.size(),
                "ewise_mul size mismatch");
  for (usize i = 0; i < x.size(); ++i) out[i] = x[i] * y[i];
}

namespace reference {

std::vector<real> spmv(const CsrMatrix& X, std::span<const real> y) {
  FUSEDML_CHECK(y.size() == static_cast<usize>(X.cols()), "spmv dim mismatch");
  std::vector<real> out(static_cast<usize>(X.rows()), real{0});
  for (index_t r = 0; r < X.rows(); ++r) {
    real s = 0;
    for (offset_t i = X.row_begin(r); i < X.row_end(r); ++i) {
      s += X.values()[static_cast<usize>(i)] *
           y[static_cast<usize>(X.col_idx()[static_cast<usize>(i)])];
    }
    out[static_cast<usize>(r)] = s;
  }
  return out;
}

std::vector<real> spmv_transposed(const CsrMatrix& X,
                                  std::span<const real> y) {
  FUSEDML_CHECK(y.size() == static_cast<usize>(X.rows()),
                "spmv_transposed dim mismatch");
  std::vector<real> out(static_cast<usize>(X.cols()), real{0});
  for (index_t r = 0; r < X.rows(); ++r) {
    const real yr = y[static_cast<usize>(r)];
    if (yr == real{0}) continue;
    for (offset_t i = X.row_begin(r); i < X.row_end(r); ++i) {
      out[static_cast<usize>(X.col_idx()[static_cast<usize>(i)])] +=
          X.values()[static_cast<usize>(i)] * yr;
    }
  }
  return out;
}

std::vector<real> gemv(const DenseMatrix& X, std::span<const real> y) {
  FUSEDML_CHECK(y.size() == static_cast<usize>(X.cols()), "gemv dim mismatch");
  std::vector<real> out(static_cast<usize>(X.rows()), real{0});
  for (index_t r = 0; r < X.rows(); ++r) {
    const auto row = X.row(r);
    real s = 0;
    for (usize c = 0; c < row.size(); ++c) s += row[c] * y[c];
    out[static_cast<usize>(r)] = s;
  }
  return out;
}

std::vector<real> gemv_transposed(const DenseMatrix& X,
                                  std::span<const real> y) {
  FUSEDML_CHECK(y.size() == static_cast<usize>(X.rows()),
                "gemv_transposed dim mismatch");
  std::vector<real> out(static_cast<usize>(X.cols()), real{0});
  for (index_t r = 0; r < X.rows(); ++r) {
    const real yr = y[static_cast<usize>(r)];
    if (yr == real{0}) continue;
    const auto row = X.row(r);
    for (usize c = 0; c < row.size(); ++c) out[c] += row[c] * yr;
  }
  return out;
}

namespace {
// Shared pattern skeleton: computes w = alpha * X^T * (v ⊙ (X*y)) + beta*z
// given row-access callbacks; keeps the sparse/dense variants in lockstep.
template <typename Mv, typename MvT>
std::vector<real> pattern_impl(real alpha, index_t rows, index_t cols,
                               std::span<const real> v,
                               std::span<const real> y, real beta,
                               std::span<const real> z, Mv&& mv, MvT&& mvt) {
  FUSEDML_CHECK(v.empty() || v.size() == static_cast<usize>(rows),
                "v must have m entries (or be empty for all-ones)");
  FUSEDML_CHECK(z.empty() || z.size() == static_cast<usize>(cols),
                "z must have n entries (or be empty for zero)");
  std::vector<real> p = mv(y);  // p = X * y
  if (!v.empty()) {
    for (usize r = 0; r < p.size(); ++r) p[r] *= v[r];
  }
  std::vector<real> w = mvt(p);  // w = X^T * p
  for (real& x : w) x *= alpha;
  if (!z.empty() && beta != real{0}) {
    for (usize c = 0; c < w.size(); ++c) w[c] += beta * z[c];
  }
  return w;
}
}  // namespace

std::vector<real> pattern(real alpha, const CsrMatrix& X,
                          std::span<const real> v, std::span<const real> y,
                          real beta, std::span<const real> z) {
  return pattern_impl(
      alpha, X.rows(), X.cols(), v, y, beta, z,
      [&](std::span<const real> in) { return spmv(X, in); },
      [&](std::span<const real> in) { return spmv_transposed(X, in); });
}

std::vector<real> pattern(real alpha, const DenseMatrix& X,
                          std::span<const real> v, std::span<const real> y,
                          real beta, std::span<const real> z) {
  return pattern_impl(
      alpha, X.rows(), X.cols(), v, y, beta, z,
      [&](std::span<const real> in) { return gemv(X, in); },
      [&](std::span<const real> in) { return gemv_transposed(X, in); });
}

}  // namespace reference

real max_abs_diff(std::span<const real> a, std::span<const real> b) {
  FUSEDML_CHECK(a.size() == b.size(), "max_abs_diff size mismatch");
  real best = 0;
  for (usize i = 0; i < a.size(); ++i) {
    best = std::max(best, std::abs(a[i] - b[i]));
  }
  return best;
}

}  // namespace fusedml::la
