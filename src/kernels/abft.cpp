#include "kernels/abft.h"

#include <cmath>
#include <sstream>

#include "common/error.h"
#include "kernels/blas1.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fusedml::kernels {

const char* to_string(VerifyPolicy policy) {
  switch (policy) {
    case VerifyPolicy::kOff: return "off";
    case VerifyPolicy::kSpot: return "spot";
    case VerifyPolicy::kFull: return "full";
  }
  return "?";
}

void AbftVerifier::set_spot_interval(int n) {
  FUSEDML_CHECK(n >= 1, "spot interval must be at least 1");
  spot_interval_ = n;
}

bool AbftVerifier::arm() {
  switch (policy_) {
    case VerifyPolicy::kOff: return false;
    case VerifyPolicy::kFull: return true;
    case VerifyPolicy::kSpot:
      return ++spot_counter_ % static_cast<std::uint64_t>(spot_interval_) == 0;
  }
  return false;
}

HostSums AbftVerifier::host_sums(std::span<const real> x) {
  HostSums s;
  for (real v : x) {
    s.sum += v;
    s.abs_sum += std::abs(v);
  }
  return s;
}

namespace {
/// dot and |dot| of two host vectors in one pass.
struct DotSums {
  real dot = 0;
  real abs_dot = 0;
};
DotSums host_dot(std::span<const real> x, std::span<const real> y) {
  DotSums s;
  const usize n = x.size() < y.size() ? x.size() : y.size();
  for (usize i = 0; i < n; ++i) {
    const real t = x[i] * y[i];
    s.dot += t;
    s.abs_dot += std::abs(t);
  }
  return s;
}
}  // namespace

usize AbftVerifier::MatKeyHash::operator()(const MatKey& k) const {
  usize h = std::hash<const void*>{}(k.data);
  const auto mix = [&h](usize v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(static_cast<usize>(k.rows));
  mix(static_cast<usize>(k.cols));
  mix(static_cast<usize>(k.nnz));
  return h;
}

const AbftVerifier::MatSums& AbftVerifier::sums_for(const la::CsrMatrix& X) {
  const MatKey key{X.values().data(), X.rows(), X.cols(),
                   static_cast<std::uint64_t>(X.nnz())};
  auto it = mat_sums_.find(key);
  if (it != mat_sums_.end()) return it->second;
  MatSums s;
  s.row_sums.assign(static_cast<usize>(X.rows()), real{0});
  s.col_sums.assign(static_cast<usize>(X.cols()), real{0});
  const auto vals = X.values();
  const auto cols = X.col_idx();
  for (index_t r = 0; r < X.rows(); ++r) {
    real rs = 0;
    for (offset_t p = X.row_begin(r); p < X.row_end(r); ++p) {
      const real v = vals[static_cast<usize>(p)];
      rs += v;
      s.col_sums[static_cast<usize>(cols[static_cast<usize>(p)])] += v;
    }
    s.row_sums[static_cast<usize>(r)] = rs;
  }
  return mat_sums_.emplace(key, std::move(s)).first->second;
}

const AbftVerifier::MatSums& AbftVerifier::sums_for(const la::DenseMatrix& X) {
  const MatKey key{X.data().data(), X.rows(), X.cols(), 0};
  auto it = mat_sums_.find(key);
  if (it != mat_sums_.end()) return it->second;
  MatSums s;
  s.row_sums.assign(static_cast<usize>(X.rows()), real{0});
  s.col_sums.assign(static_cast<usize>(X.cols()), real{0});
  for (index_t r = 0; r < X.rows(); ++r) {
    const auto row = X.row(r);
    real rs = 0;
    for (index_t c = 0; c < X.cols(); ++c) {
      rs += row[static_cast<usize>(c)];
      s.col_sums[static_cast<usize>(c)] += row[static_cast<usize>(c)];
    }
    s.row_sums[static_cast<usize>(r)] = rs;
  }
  return mat_sums_.emplace(key, std::move(s)).first->second;
}

const std::vector<real>& AbftVerifier::pattern_checksum(
    const la::CsrMatrix& X, std::span<const real> v) {
  const MatKey key{X.values().data(), X.rows(), X.cols(),
                   static_cast<std::uint64_t>(X.nnz())};
  auto& entry = pattern_sums_[key];
  const HostSums vs = v.empty() ? HostSums{} : host_sums(v);
  const bool fresh =
      entry.k.empty() || entry.v_data != (v.empty() ? nullptr : v.data()) ||
      entry.v_size != v.size() || entry.v_sum != vs.sum ||
      entry.v_first != (v.empty() ? real{0} : v.front()) ||
      entry.v_last != (v.empty() ? real{0} : v.back());
  if (fresh) {
    const auto& sums = sums_for(X);
    entry.k.assign(static_cast<usize>(X.cols()), real{0});
    const auto vals = X.values();
    const auto cols = X.col_idx();
    for (index_t r = 0; r < X.rows(); ++r) {
      const real coeff =
          sums.row_sums[static_cast<usize>(r)] *
          (v.empty() ? real{1} : v[static_cast<usize>(r)]);
      if (coeff == real{0}) continue;
      for (offset_t p = X.row_begin(r); p < X.row_end(r); ++p) {
        entry.k[static_cast<usize>(cols[static_cast<usize>(p)])] +=
            vals[static_cast<usize>(p)] * coeff;
      }
    }
    entry.v_data = v.empty() ? nullptr : v.data();
    entry.v_size = v.size();
    entry.v_sum = vs.sum;
    entry.v_first = v.empty() ? real{0} : v.front();
    entry.v_last = v.empty() ? real{0} : v.back();
  }
  return entry.k;
}

const std::vector<real>& AbftVerifier::pattern_checksum(
    const la::DenseMatrix& X, std::span<const real> v) {
  const MatKey key{X.data().data(), X.rows(), X.cols(), 0};
  auto& entry = pattern_sums_[key];
  const HostSums vs = v.empty() ? HostSums{} : host_sums(v);
  const bool fresh =
      entry.k.empty() || entry.v_data != (v.empty() ? nullptr : v.data()) ||
      entry.v_size != v.size() || entry.v_sum != vs.sum ||
      entry.v_first != (v.empty() ? real{0} : v.front()) ||
      entry.v_last != (v.empty() ? real{0} : v.back());
  if (fresh) {
    const auto& sums = sums_for(X);
    entry.k.assign(static_cast<usize>(X.cols()), real{0});
    for (index_t r = 0; r < X.rows(); ++r) {
      const real coeff =
          sums.row_sums[static_cast<usize>(r)] *
          (v.empty() ? real{1} : v[static_cast<usize>(r)]);
      if (coeff == real{0}) continue;
      const auto row = X.row(r);
      for (index_t c = 0; c < X.cols(); ++c) {
        entry.k[static_cast<usize>(c)] += row[static_cast<usize>(c)] * coeff;
      }
    }
    entry.v_data = v.empty() ? nullptr : v.data();
    entry.v_size = v.size();
    entry.v_sum = vs.sum;
    entry.v_first = v.empty() ? real{0} : v.front();
    entry.v_last = v.empty() ? real{0} : v.back();
  }
  return entry.k;
}

real AbftVerifier::device_sum(std::span<const real> w, VerifyCharge& charge) {
  auto& ones = ones_[w.size()];
  if (ones.size() != w.size()) ones.assign(w.size(), real{1});
  auto op = dev_dot(dev_, w, ones);
  charge.launches += op.launches;
  charge.modeled_ms += op.modeled_ms;
  charge.counters += op.counters;
  if (dev_.take_silent_corruptions() != 0) {
    ++mismatches_;
    if (obs::metrics().enabled()) {
      obs::metrics().counter("verify.mismatches").add();
    }
    throw SilentCorruptionError(
        "ABFT: verification reduction itself was corrupted — recompute",
        charge.modeled_ms);
  }
  return op.value[0];
}

void AbftVerifier::conclude(const char* what, real observed, real expected,
                            real scale, const VerifyCharge& charge) {
  ++checks_;
  if (obs::metrics().enabled()) {
    auto& m = obs::metrics();
    m.counter("verify.checks").add();
    if (charge.launches != 0) m.counter("verify.launches").add(charge.launches);
  }
  compare(what, observed, expected, scale, charge.modeled_ms);
}

void AbftVerifier::compare(const char* what, real observed, real expected,
                           real scale, double penalty_ms) {
  if (!std::isfinite(observed) || !std::isfinite(expected)) {
    std::ostringstream os;
    os << "ABFT check on " << what << " saw a non-finite value: observed "
       << observed << ", expected " << expected
       << " — the computation overflowed or diverged";
    throw NonFiniteError(os.str());
  }
  const real tol =
      kAbftRelTol * (real{1} + std::abs(expected) + std::abs(scale));
  if (std::abs(observed - expected) <= tol) return;
  ++mismatches_;
  if (obs::metrics().enabled()) {
    obs::metrics().counter("verify.mismatches").add();
  }
  std::ostringstream os;
  os << "ABFT checksum mismatch on " << what << ": observed " << observed
     << ", expected " << expected << " — silent data corruption detected";
  throw SilentCorruptionError(os.str(), penalty_ms);
}

VerifyCharge AbftVerifier::check_product(std::span<const real> p,
                                         const la::CsrMatrix& X,
                                         std::span<const real> y) {
  obs::TraceSpan span("verify:product", "verify", obs::Track::kDispatch);
  VerifyCharge charge;
  const real observed = device_sum(p, charge);
  const auto& sums = sums_for(X);
  const DotSums exp = host_dot(sums.col_sums, y);
  if (span.active()) span.cover_modeled_ms(charge.modeled_ms);
  conclude("product", observed, exp.dot, exp.abs_dot, charge);
  return charge;
}

VerifyCharge AbftVerifier::check_product(std::span<const real> p,
                                         const la::DenseMatrix& X,
                                         std::span<const real> y) {
  obs::TraceSpan span("verify:product", "verify", obs::Track::kDispatch);
  VerifyCharge charge;
  const real observed = device_sum(p, charge);
  const auto& sums = sums_for(X);
  const DotSums exp = host_dot(sums.col_sums, y);
  if (span.active()) span.cover_modeled_ms(charge.modeled_ms);
  conclude("product", observed, exp.dot, exp.abs_dot, charge);
  return charge;
}

VerifyCharge AbftVerifier::check_transposed_product(std::span<const real> w,
                                                    const la::CsrMatrix& X,
                                                    std::span<const real> y,
                                                    real alpha) {
  obs::TraceSpan span("verify:transposed_product", "verify",
                      obs::Track::kDispatch);
  VerifyCharge charge;
  const real observed = device_sum(w, charge);
  const auto& sums = sums_for(X);
  const DotSums exp = host_dot(sums.row_sums, y);
  if (span.active()) span.cover_modeled_ms(charge.modeled_ms);
  conclude("transposed_product", observed, alpha * exp.dot,
           std::abs(alpha) * exp.abs_dot, charge);
  return charge;
}

VerifyCharge AbftVerifier::check_transposed_product(std::span<const real> w,
                                                    const la::DenseMatrix& X,
                                                    std::span<const real> y,
                                                    real alpha) {
  obs::TraceSpan span("verify:transposed_product", "verify",
                      obs::Track::kDispatch);
  VerifyCharge charge;
  const real observed = device_sum(w, charge);
  const auto& sums = sums_for(X);
  const DotSums exp = host_dot(sums.row_sums, y);
  if (span.active()) span.cover_modeled_ms(charge.modeled_ms);
  conclude("transposed_product", observed, alpha * exp.dot,
           std::abs(alpha) * exp.abs_dot, charge);
  return charge;
}

VerifyCharge AbftVerifier::check_pattern(std::span<const real> w, real alpha,
                                         const la::CsrMatrix& X,
                                         std::span<const real> v,
                                         std::span<const real> y, real beta,
                                         std::span<const real> z) {
  obs::TraceSpan span("verify:pattern", "verify", obs::Track::kDispatch);
  VerifyCharge charge;
  const real observed = device_sum(w, charge);
  const auto& k = pattern_checksum(X, v);
  const DotSums ky = host_dot(k, y);
  const HostSums zs = z.empty() ? HostSums{} : host_sums(z);
  const real expected = alpha * ky.dot + beta * zs.sum;
  const real scale =
      std::abs(alpha) * ky.abs_dot + std::abs(beta) * zs.abs_sum;
  if (span.active()) span.cover_modeled_ms(charge.modeled_ms);
  conclude("pattern", observed, expected, scale, charge);
  return charge;
}

VerifyCharge AbftVerifier::check_pattern(std::span<const real> w, real alpha,
                                         const la::DenseMatrix& X,
                                         std::span<const real> v,
                                         std::span<const real> y, real beta,
                                         std::span<const real> z) {
  obs::TraceSpan span("verify:pattern", "verify", obs::Track::kDispatch);
  VerifyCharge charge;
  const real observed = device_sum(w, charge);
  const auto& k = pattern_checksum(X, v);
  const DotSums ky = host_dot(k, y);
  const HostSums zs = z.empty() ? HostSums{} : host_sums(z);
  const real expected = alpha * ky.dot + beta * zs.sum;
  const real scale =
      std::abs(alpha) * ky.abs_dot + std::abs(beta) * zs.abs_sum;
  if (span.active()) span.cover_modeled_ms(charge.modeled_ms);
  conclude("pattern", observed, expected, scale, charge);
  return charge;
}

VerifyCharge AbftVerifier::check_axpy(std::span<const real> y_after, real alpha,
                                      const HostSums& x_before,
                                      const HostSums& y_before) {
  VerifyCharge charge;
  const HostSums after = host_sums(y_after);
  conclude("axpy", after.sum, y_before.sum + alpha * x_before.sum,
           y_before.abs_sum + std::abs(alpha) * x_before.abs_sum +
               after.abs_sum,
           charge);
  return charge;
}

VerifyCharge AbftVerifier::check_scal(std::span<const real> x_after, real alpha,
                                      const HostSums& x_before) {
  VerifyCharge charge;
  const HostSums after = host_sums(x_after);
  conclude("scal", after.sum, alpha * x_before.sum,
           std::abs(alpha) * x_before.abs_sum + after.abs_sum, charge);
  return charge;
}

VerifyCharge AbftVerifier::check_dot(real observed, std::span<const real> x,
                                     std::span<const real> y) {
  VerifyCharge charge;
  const DotSums exp = host_dot(x, y);
  conclude("dot", observed, exp.dot, exp.abs_dot, charge);
  return charge;
}

VerifyCharge AbftVerifier::check_nrm2(real observed, std::span<const real> x) {
  VerifyCharge charge;
  real ss = 0;
  for (real v : x) ss += v * v;
  conclude("nrm2", observed, std::sqrt(ss), std::sqrt(ss), charge);
  return charge;
}

VerifyCharge AbftVerifier::check_ewise_mul(std::span<const real> out,
                                           std::span<const real> x,
                                           std::span<const real> y) {
  VerifyCharge charge;
  const HostSums o = host_sums(out);
  const DotSums exp = host_dot(x, y);
  conclude("ewise_mul", o.sum, exp.dot, exp.abs_dot + o.abs_sum, charge);
  return charge;
}

VerifyCharge AbftVerifier::check_map(std::span<const real> out,
                                     std::span<const real> x, real (*f)(real)) {
  VerifyCharge charge;
  ++checks_;
  if (obs::metrics().enabled()) obs::metrics().counter("verify.checks").add();
  for (usize i = 0; i < out.size(); ++i) {
    const real expected = f(x[i]);
    compare("map", out[i], expected, 0, 0.0);
  }
  return charge;
}

VerifyCharge AbftVerifier::check_ewise_chain(
    std::span<const real> out, const EwiseProgram& program,
    std::span<const std::span<const real>> inputs) {
  VerifyCharge charge;
  ++checks_;
  if (obs::metrics().enabled()) obs::metrics().counter("verify.checks").add();
  const auto ref = cpu_.ewise_chain(program, inputs);
  for (usize i = 0; i < out.size(); ++i) {
    const real expected = ref.value[i];
    compare("fused_ewise", out[i], expected, 0, 0.0);
  }
  return charge;
}

VerifyCharge AbftVerifier::check_outer_map(std::span<const real> out,
                                           std::span<const real> u,
                                           std::span<const real> v,
                                           real (*f)(real)) {
  VerifyCharge charge;
  ++checks_;
  if (obs::metrics().enabled()) obs::metrics().counter("verify.checks").add();
  const usize n = v.size();
  for (usize i = 0; i < out.size(); ++i) {
    const real expected = f(u[i / n] * v[i % n]);
    compare("outer_map", out[i], expected, 0, 0.0);
  }
  return charge;
}

VerifyCharge AbftVerifier::check_sparse_mask(std::span<const real> out,
                                             const la::CsrMatrix& X,
                                             std::span<const real> om) {
  VerifyCharge charge;
  ++checks_;
  if (obs::metrics().enabled()) obs::metrics().counter("verify.checks").add();
  const auto n = static_cast<usize>(X.cols());
  for (index_t r = 0; r < X.rows(); ++r) {
    for (offset_t i = X.row_begin(r); i < X.row_end(r); ++i) {
      const auto k = static_cast<usize>(i);
      const real expected =
          X.values()[k] *
          om[static_cast<usize>(r) * n + static_cast<usize>(X.col_idx()[k])];
      compare("sparse_mask", out[k], expected, 0, 0.0);
    }
  }
  return charge;
}

VerifyCharge AbftVerifier::check_sparse_mask(std::span<const real> out,
                                             const la::DenseMatrix& X,
                                             std::span<const real> om) {
  VerifyCharge charge;
  ++checks_;
  if (obs::metrics().enabled()) obs::metrics().counter("verify.checks").add();
  for (usize i = 0; i < out.size(); ++i) {
    const real expected = X.data()[i] * om[i];
    compare("sparse_mask", out[i], expected, 0, 0.0);
  }
  return charge;
}

VerifyCharge AbftVerifier::check_masked_product(std::span<const real> out,
                                                const la::CsrMatrix& X,
                                                std::span<const real> vals,
                                                std::span<const real> z) {
  VerifyCharge charge;
  ++checks_;
  if (obs::metrics().enabled()) obs::metrics().counter("verify.checks").add();
  for (index_t r = 0; r < X.rows(); ++r) {
    real expected = 0;
    real abs_terms = 0;
    for (offset_t i = X.row_begin(r); i < X.row_end(r); ++i) {
      const auto k = static_cast<usize>(i);
      const real t = vals[k] * z[static_cast<usize>(X.col_idx()[k])];
      expected += t;
      abs_terms += std::abs(t);
    }
    compare("masked_product", out[static_cast<usize>(r)], expected, abs_terms,
            0.0);
  }
  return charge;
}

VerifyCharge AbftVerifier::check_masked_product(std::span<const real> out,
                                                const la::DenseMatrix& X,
                                                std::span<const real> vals,
                                                std::span<const real> z) {
  VerifyCharge charge;
  ++checks_;
  if (obs::metrics().enabled()) obs::metrics().counter("verify.checks").add();
  const auto n = static_cast<usize>(X.cols());
  for (index_t r = 0; r < X.rows(); ++r) {
    real expected = 0;
    real abs_terms = 0;
    for (usize c = 0; c < n; ++c) {
      const real t = vals[static_cast<usize>(r) * n + c] * z[c];
      expected += t;
      abs_terms += std::abs(t);
    }
    compare("masked_product", out[static_cast<usize>(r)], expected, abs_terms,
            0.0);
  }
  return charge;
}

namespace {
/// Row products and their absolute term sums — the reduction-side scale the
/// fused-row tolerance needs.
template <typename RowTerms>
void product_with_scale(index_t rows, RowTerms&& row_terms,
                        std::vector<real>& product, std::vector<real>& scale) {
  product.assign(static_cast<usize>(rows), real{0});
  scale.assign(static_cast<usize>(rows), real{0});
  for (index_t r = 0; r < rows; ++r) {
    row_terms(r, product[static_cast<usize>(r)], scale[static_cast<usize>(r)]);
  }
}
}  // namespace

VerifyCharge AbftVerifier::check_fused_row(
    std::span<const real> out, const la::CsrMatrix& X, std::span<const real> y,
    const EwiseProgram& program, std::span<const std::span<const real>> ext) {
  obs::TraceSpan span("verify:fused_row", "verify", obs::Track::kDispatch);
  VerifyCharge charge;
  // The output lives on the device: read it back through a billed reduction
  // (same idiom as the product/pattern checks), then screen per element on
  // the host — the nonlinear maps in the program rule out a pure checksum.
  const real observed = device_sum(out, charge);
  std::vector<real> product, scale;
  product_with_scale(X.rows(),
                     [&](index_t r, real& p, real& s) {
                       for (offset_t i = X.row_begin(r); i < X.row_end(r);
                            ++i) {
                         const auto k = static_cast<usize>(i);
                         const real t =
                             X.values()[k] *
                             y[static_cast<usize>(X.col_idx()[k])];
                         p += t;
                         s += std::abs(t);
                       }
                     },
                     product, scale);
  std::vector<std::span<const real>> inputs;
  inputs.reserve(ext.size() + 1);
  inputs.emplace_back(product);
  for (const auto& e : ext) inputs.push_back(e);
  const auto expected = program.evaluate(inputs);
  real exp_sum = 0;
  real exp_scale = 0;
  for (usize i = 0; i < expected.size(); ++i) {
    exp_sum += expected[i];
    exp_scale += std::abs(expected[i]) + scale[i];
  }
  if (span.active()) span.cover_modeled_ms(charge.modeled_ms);
  conclude("fused_row", observed, exp_sum, exp_scale, charge);
  for (usize i = 0; i < out.size(); ++i) {
    compare("fused_row", out[i], expected[i], scale[i], charge.modeled_ms);
  }
  return charge;
}

VerifyCharge AbftVerifier::check_fused_row(
    std::span<const real> out, const la::DenseMatrix& X,
    std::span<const real> y, const EwiseProgram& program,
    std::span<const std::span<const real>> ext) {
  obs::TraceSpan span("verify:fused_row", "verify", obs::Track::kDispatch);
  VerifyCharge charge;
  const real observed = device_sum(out, charge);
  const auto n = static_cast<usize>(X.cols());
  std::vector<real> product, scale;
  product_with_scale(X.rows(),
                     [&](index_t r, real& p, real& s) {
                       const auto row = X.row(r);
                       for (usize c = 0; c < n; ++c) {
                         const real t = row[c] * y[c];
                         p += t;
                         s += std::abs(t);
                       }
                     },
                     product, scale);
  std::vector<std::span<const real>> inputs;
  inputs.reserve(ext.size() + 1);
  inputs.emplace_back(product);
  for (const auto& e : ext) inputs.push_back(e);
  const auto expected = program.evaluate(inputs);
  real exp_sum = 0;
  real exp_scale = 0;
  for (usize i = 0; i < expected.size(); ++i) {
    exp_sum += expected[i];
    exp_scale += std::abs(expected[i]) + scale[i];
  }
  if (span.active()) span.cover_modeled_ms(charge.modeled_ms);
  conclude("fused_row", observed, exp_sum, exp_scale, charge);
  for (usize i = 0; i < out.size(); ++i) {
    compare("fused_row", out[i], expected[i], scale[i], charge.modeled_ms);
  }
  return charge;
}

VerifyCharge AbftVerifier::check_fused_sddmm(
    std::span<const real> out, const la::CsrMatrix& X, std::span<const real> u,
    std::span<const real> v, std::span<const real> z, real (*f)(real)) {
  obs::TraceSpan span("verify:fused_sddmm", "verify", obs::Track::kDispatch);
  VerifyCharge charge;
  const real observed = device_sum(out, charge);
  std::vector<real> expected(static_cast<usize>(X.rows()), real{0});
  std::vector<real> scale(static_cast<usize>(X.rows()), real{0});
  real exp_sum = 0;
  real exp_scale = 0;
  for (index_t r = 0; r < X.rows(); ++r) {
    const auto ri = static_cast<usize>(r);
    for (offset_t i = X.row_begin(r); i < X.row_end(r); ++i) {
      const auto k = static_cast<usize>(i);
      const auto col = static_cast<usize>(X.col_idx()[k]);
      const real t = X.values()[k] * f(u[ri] * v[col]) * z[col];
      expected[ri] += t;
      scale[ri] += std::abs(t);
    }
    exp_sum += expected[ri];
    exp_scale += std::abs(expected[ri]) + scale[ri];
  }
  if (span.active()) span.cover_modeled_ms(charge.modeled_ms);
  conclude("fused_sddmm", observed, exp_sum, exp_scale, charge);
  for (usize i = 0; i < out.size(); ++i) {
    compare("fused_sddmm", out[i], expected[i], scale[i], charge.modeled_ms);
  }
  return charge;
}

VerifyCharge AbftVerifier::check_fused_sddmm(
    std::span<const real> out, const la::DenseMatrix& X,
    std::span<const real> u, std::span<const real> v, std::span<const real> z,
    real (*f)(real)) {
  obs::TraceSpan span("verify:fused_sddmm", "verify", obs::Track::kDispatch);
  VerifyCharge charge;
  const real observed = device_sum(out, charge);
  const auto n = static_cast<usize>(X.cols());
  std::vector<real> expected(static_cast<usize>(X.rows()), real{0});
  std::vector<real> scale(static_cast<usize>(X.rows()), real{0});
  real exp_sum = 0;
  real exp_scale = 0;
  for (index_t r = 0; r < X.rows(); ++r) {
    const auto ri = static_cast<usize>(r);
    const auto row = X.row(r);
    for (usize c = 0; c < n; ++c) {
      const real t = row[c] * f(u[ri] * v[c]) * z[c];
      expected[ri] += t;
      scale[ri] += std::abs(t);
    }
    exp_sum += expected[ri];
    exp_scale += std::abs(expected[ri]) + scale[ri];
  }
  if (span.active()) span.cover_modeled_ms(charge.modeled_ms);
  conclude("fused_sddmm", observed, exp_sum, exp_scale, charge);
  for (usize i = 0; i < out.size(); ++i) {
    compare("fused_sddmm", out[i], expected[i], scale[i], charge.modeled_ms);
  }
  return charge;
}

}  // namespace fusedml::kernels
