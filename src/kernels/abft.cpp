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

bool AbftVerifier::arm() {
  switch (policy_) {
    case VerifyPolicy::kOff: return false;
    case VerifyPolicy::kFull: return true;
    case VerifyPolicy::kSpot:
      return ++spot_counter_ % static_cast<std::uint64_t>(kSpotInterval) == 0;
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

/// X's row and column sums, built once per matrix (la/checksums.h).
std::shared_ptr<const la::MatrixSums> sums_for(la::MatrixRef X) {
  return X.checksums().sums([&] {
    la::MatrixSums s;
    s.row_sums.assign(static_cast<usize>(X.rows()), real{0});
    s.col_sums.assign(static_cast<usize>(X.cols()), real{0});
    X.for_each_entry([&](index_t r, usize, index_t c, real x) {
      s.row_sums[static_cast<usize>(r)] += x;
      s.col_sums[static_cast<usize>(c)] += x;
    });
    return s;
  });
}

/// k = X^T (v ⊙ rowsum(X)), rebuilt when v's contents change (GLM IRLS
/// outer iterations) and reused by the inner CG iterations.
std::shared_ptr<const la::PatternSums> pattern_checksum(
    la::MatrixRef X, std::span<const real> v) {
  return X.checksums().pattern(v, [&] {
    const auto sums = sums_for(X);
    std::vector<real> coeff(static_cast<usize>(X.rows()));
    for (usize r = 0; r < coeff.size(); ++r) {
      coeff[r] = sums->row_sums[r] * (v.empty() ? real{1} : v[r]);
    }
    std::vector<real> k(static_cast<usize>(X.cols()), real{0});
    X.for_each_entry([&](index_t r, usize, index_t c, real x) {
      const real cr = coeff[static_cast<usize>(r)];
      if (cr != real{0}) k[static_cast<usize>(c)] += x * cr;
    });
    return k;
  });
}
}  // namespace

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
                                         la::MatrixRef X,
                                         std::span<const real> y) {
  obs::TraceSpan span("verify:product", "verify", obs::Track::kDispatch);
  VerifyCharge charge;
  const real observed = device_sum(p, charge);
  const DotSums exp = host_dot(sums_for(X)->col_sums, y);
  if (span.active()) span.cover_modeled_ms(charge.modeled_ms);
  conclude("product", observed, exp.dot, exp.abs_dot, charge);
  return charge;
}

VerifyCharge AbftVerifier::check_transposed_product(std::span<const real> w,
                                                    la::MatrixRef X,
                                                    std::span<const real> y,
                                                    real alpha) {
  obs::TraceSpan span("verify:transposed_product", "verify",
                      obs::Track::kDispatch);
  VerifyCharge charge;
  const real observed = device_sum(w, charge);
  const DotSums exp = host_dot(sums_for(X)->row_sums, y);
  if (span.active()) span.cover_modeled_ms(charge.modeled_ms);
  conclude("transposed_product", observed, alpha * exp.dot,
           std::abs(alpha) * exp.abs_dot, charge);
  return charge;
}

VerifyCharge AbftVerifier::check_pattern(std::span<const real> w, real alpha,
                                         la::MatrixRef X,
                                         std::span<const real> v,
                                         std::span<const real> y, real beta,
                                         std::span<const real> z) {
  obs::TraceSpan span("verify:pattern", "verify", obs::Track::kDispatch);
  VerifyCharge charge;
  const real observed = device_sum(w, charge);
  const DotSums ky = host_dot(pattern_checksum(X, v)->k, y);
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
                                             la::MatrixRef X,
                                             std::span<const real> om) {
  VerifyCharge charge;
  ++checks_;
  if (obs::metrics().enabled()) obs::metrics().counter("verify.checks").add();
  const auto n = static_cast<usize>(X.cols());
  X.for_each_entry([&](index_t r, usize k, index_t c, real x) {
    const real expected =
        x * om[static_cast<usize>(r) * n + static_cast<usize>(c)];
    compare("sparse_mask", out[k], expected, 0, 0.0);
  });
  return charge;
}

namespace {
/// Per row r of X: the sum of term(r, k, c, x) over the row's entries and
/// the sum of their absolute values — the reduction-side tolerance scale.
struct RowTerms {
  std::vector<real> sum;
  std::vector<real> abs_sum;
};
template <typename Term>
RowTerms row_terms(la::MatrixRef X, Term&& term) {
  RowTerms s;
  s.sum.assign(static_cast<usize>(X.rows()), real{0});
  s.abs_sum.assign(static_cast<usize>(X.rows()), real{0});
  X.for_each_entry([&](index_t r, usize k, index_t c, real x) {
    const auto ri = static_cast<usize>(r);
    const real t = term(ri, k, static_cast<usize>(c), x);
    s.sum[ri] += t;
    s.abs_sum[ri] += std::abs(t);
  });
  return s;
}
}  // namespace

VerifyCharge AbftVerifier::check_masked_product(std::span<const real> out,
                                                la::MatrixRef X,
                                                std::span<const real> vals,
                                                std::span<const real> z) {
  VerifyCharge charge;
  ++checks_;
  if (obs::metrics().enabled()) obs::metrics().counter("verify.checks").add();
  const RowTerms exp = row_terms(
      X, [&](usize, usize k, usize c, real) { return vals[k] * z[c]; });
  for (usize r = 0; r < exp.sum.size(); ++r) {
    compare("masked_product", out[r], exp.sum[r], exp.abs_sum[r], 0.0);
  }
  return charge;
}

VerifyCharge AbftVerifier::check_fused_row(
    std::span<const real> out, la::MatrixRef X, std::span<const real> y,
    const EwiseProgram& program, std::span<const std::span<const real>> ext) {
  obs::TraceSpan span("verify:fused_row", "verify", obs::Track::kDispatch);
  VerifyCharge charge;
  // The output lives on the device: read it back through a billed reduction
  // (same idiom as the product/pattern checks), then screen per element on
  // the host — the nonlinear maps in the program rule out a pure checksum.
  const real observed = device_sum(out, charge);
  const RowTerms product =
      row_terms(X, [&](usize, usize, usize c, real x) { return x * y[c]; });
  std::vector<std::span<const real>> inputs;
  inputs.reserve(ext.size() + 1);
  inputs.emplace_back(product.sum);
  for (const auto& e : ext) inputs.push_back(e);
  const auto expected = program.evaluate(inputs);
  real exp_sum = 0;
  real exp_scale = 0;
  for (usize i = 0; i < expected.size(); ++i) {
    exp_sum += expected[i];
    exp_scale += std::abs(expected[i]) + product.abs_sum[i];
  }
  if (span.active()) span.cover_modeled_ms(charge.modeled_ms);
  conclude("fused_row", observed, exp_sum, exp_scale, charge);
  for (usize i = 0; i < out.size(); ++i) {
    compare("fused_row", out[i], expected[i], product.abs_sum[i],
            charge.modeled_ms);
  }
  return charge;
}

VerifyCharge AbftVerifier::check_fused_sddmm(
    std::span<const real> out, la::MatrixRef X, std::span<const real> u,
    std::span<const real> v, std::span<const real> z, real (*f)(real)) {
  obs::TraceSpan span("verify:fused_sddmm", "verify", obs::Track::kDispatch);
  VerifyCharge charge;
  const real observed = device_sum(out, charge);
  const RowTerms exp = row_terms(X, [&](usize r, usize, usize c, real x) {
    return x * f(u[r] * v[c]) * z[c];
  });
  real exp_sum = 0;
  real exp_scale = 0;
  for (usize r = 0; r < exp.sum.size(); ++r) {
    exp_sum += exp.sum[r];
    exp_scale += std::abs(exp.sum[r]) + exp.abs_sum[r];
  }
  if (span.active()) span.cover_modeled_ms(charge.modeled_ms);
  conclude("fused_sddmm", observed, exp_sum, exp_scale, charge);
  for (usize i = 0; i < out.size(); ++i) {
    compare("fused_sddmm", out[i], exp.sum[i], exp.abs_sum[i],
            charge.modeled_ms);
  }
  return charge;
}

}  // namespace fusedml::kernels
