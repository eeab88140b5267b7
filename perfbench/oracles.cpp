#include "oracles.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

namespace {

using fusedml::la::CsrMatrix;
using fusedml::la::DenseMatrix;

std::vector<real> times(const CsrMatrix& X, std::span<const real> y) {
  std::vector<real> out(static_cast<std::size_t>(X.rows()), 0.0);
  const auto off = X.row_off();
  const auto col = X.col_idx();
  const auto val = X.values();
  for (std::size_t r = 0; r < out.size(); ++r) {
    for (auto k = off[r]; k < off[r + 1]; ++k) {
      out[r] += val[static_cast<std::size_t>(k)] *
                y[static_cast<std::size_t>(col[static_cast<std::size_t>(k)])];
    }
  }
  return out;
}

std::vector<real> transposed_times(const CsrMatrix& X,
                                   std::span<const real> p) {
  std::vector<real> out(static_cast<std::size_t>(X.cols()), 0.0);
  const auto off = X.row_off();
  const auto col = X.col_idx();
  const auto val = X.values();
  for (std::size_t r = 0; r + 1 < off.size(); ++r) {
    for (auto k = off[r]; k < off[r + 1]; ++k) {
      out[static_cast<std::size_t>(col[static_cast<std::size_t>(k)])] +=
          val[static_cast<std::size_t>(k)] * p[r];
    }
  }
  return out;
}

std::vector<real> times(const DenseMatrix& X, std::span<const real> y) {
  std::vector<real> out(static_cast<std::size_t>(X.rows()), 0.0);
  for (fusedml::index_t r = 0; r < X.rows(); ++r) {
    for (fusedml::index_t c = 0; c < X.cols(); ++c) {
      out[static_cast<std::size_t>(r)] +=
          X.at(r, c) * y[static_cast<std::size_t>(c)];
    }
  }
  return out;
}

std::vector<real> transposed_times(const DenseMatrix& X,
                                   std::span<const real> p) {
  std::vector<real> out(static_cast<std::size_t>(X.cols()), 0.0);
  for (fusedml::index_t r = 0; r < X.rows(); ++r) {
    for (fusedml::index_t c = 0; c < X.cols(); ++c) {
      out[static_cast<std::size_t>(c)] +=
          X.at(r, c) * p[static_cast<std::size_t>(r)];
    }
  }
  return out;
}

double norm(std::span<const real> x) {
  double s = 0.0;
  for (const real v : x) s += static_cast<double>(v) * v;
  return std::sqrt(s);
}

template <typename Matrix>
std::vector<real> equation1_impl(const Matrix& X, real alpha,
                                 std::span<const real> v,
                                 std::span<const real> y, real beta,
                                 std::span<const real> z) {
  std::vector<real> p = times(X, y);
  if (!v.empty()) {
    for (std::size_t i = 0; i < p.size(); ++i) p[i] *= v[i];
  }
  std::vector<real> w = transposed_times(X, p);
  for (std::size_t j = 0; j < w.size(); ++j) {
    w[j] *= alpha;
    if (!z.empty()) w[j] += beta * z[j];
  }
  return w;
}

}  // namespace

double lr_cg_relative_residual(const CsrMatrix& X, std::span<const real> y,
                               std::span<const real> w, real eps) {
  const std::vector<real> rhs = transposed_times(X, y);
  const std::vector<real> lhs = transposed_times(X, times(X, w));
  std::vector<real> r(rhs.size());
  for (std::size_t j = 0; j < r.size(); ++j) {
    r[j] = rhs[j] - (lhs[j] + eps * w[j]);
  }
  return norm(r) / norm(rhs);
}

std::vector<real> equation1(const CsrMatrix& X, real alpha,
                            std::span<const real> v, std::span<const real> y,
                            real beta, std::span<const real> z) {
  return equation1_impl(X, alpha, v, y, beta, z);
}

std::vector<real> equation1(const DenseMatrix& X, real alpha,
                            std::span<const real> v, std::span<const real> y,
                            real beta, std::span<const real> z) {
  return equation1_impl(X, alpha, v, y, beta, z);
}

bool bit_equal(std::span<const real> a, std::span<const real> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

double max_scaled_diff(std::span<const real> a, std::span<const real> b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double scale = 1.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!std::isfinite(a[i]) || !std::isfinite(b[i])) {
      return std::numeric_limits<double>::infinity();
    }
    scale = std::max(scale, std::abs(static_cast<double>(b[i])));
    worst = std::max(worst, std::abs(static_cast<double>(a[i] - b[i])));
  }
  return worst / scale;
}

}  // namespace perfbench
