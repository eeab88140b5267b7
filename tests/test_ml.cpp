// Tests for the ML algorithms as script-library scripts: convergence on
// recoverable synthetic problems, independence of the result from the
// runtime's device backend and placement, and the Table-1 instantiations
// each algorithm's hardcoded-pass run dispatches.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "common/rng.h"
#include "la/convert.h"
#include "la/coo_matrix.h"
#include "la/generate.h"
#include "la/vector_ops.h"
#include "ml/script_library.h"
#include "sysml/runtime.h"
#include "test_util.h"

namespace fusedml::ml {
namespace {

using kernels::Backend;
using la::random_vector;
using la::uniform_sparse;

/// Every op on the device, starting on `backend`.
sysml::RuntimeOptions on_device(Backend backend = Backend::kFused) {
  return {.gpu_cost_bias = 1e-4, .gpu_backend = backend};
}

/// The distinct op names a runtime traced.
std::set<std::string> traced_ops(const sysml::Runtime& rt) {
  std::set<std::string> ops;
  for (const auto& entry : rt.trace()) ops.insert(entry.op);
  return ops;
}

// --- Linear Regression CG ------------------------------------------------------

TEST(LrCg, RecoversTrueWeightsNoiseless) {
  vgpu::Device dev;
  sysml::Runtime rt(dev);
  const auto X = uniform_sparse(2000, 50, 0.2, 501);
  const auto y = la::regression_labels(X, 501, 0.0);
  const auto w_true = la::regression_true_weights(50, 501);

  ScriptConfig cfg;
  cfg.eps = 1e-9;  // nearly exact normal equations
  const auto result = run_lr_cg_script(rt, X, y, PlanMode::kPlanner, cfg);
  EXPECT_LT(result.iterations, cfg.max_iterations) << "converged";
  test::expect_vectors_near(w_true, result.weights, 1e-4);
}

TEST(LrCg, AllBackendsAgree) {
  const auto X = uniform_sparse(500, 40, 0.15, 502);
  const auto y = la::regression_labels(X, 502, 0.05);
  ScriptConfig cfg;
  cfg.max_iterations = 20;

  vgpu::Device base_dev;
  sysml::Runtime base_rt(base_dev, on_device());
  const auto base = run_lr_cg_script(base_rt, X, y, PlanMode::kPlanner, cfg);
  const sysml::RuntimeOptions others[] = {on_device(Backend::kCusparse),
                                          on_device(Backend::kBidmatGpu),
                                          {.enable_gpu = false}};
  for (const auto& opts : others) {
    vgpu::Device dev;
    sysml::Runtime rt(dev, opts);
    const auto other = run_lr_cg_script(rt, X, y, PlanMode::kPlanner, cfg);
    EXPECT_EQ(other.iterations, base.iterations);
    test::expect_vectors_near(base.weights, other.weights, 1e-6);
  }
}

TEST(LrCg, DenseMatchesSparse) {
  const auto Xs = uniform_sparse(400, 30, 0.3, 503);
  const auto Xd = la::csr_to_dense(Xs);
  const auto y = la::regression_labels(Xs, 503, 0.01);
  ScriptConfig cfg;
  cfg.max_iterations = 25;
  vgpu::Device dev_s, dev_d;
  sysml::Runtime rt_s(dev_s), rt_d(dev_d);
  const auto rs = run_lr_cg_script(rt_s, Xs, y, PlanMode::kPlanner, cfg);
  const auto rd = run_lr_cg_script(rt_d, Xd, y, PlanMode::kPlanner, cfg);
  test::expect_vectors_near(rs.weights, rd.weights, 1e-6);
}

TEST(LrCg, UsesTheTable1Patterns) {
  vgpu::Device dev;
  sysml::Runtime rt(dev);
  const auto X = uniform_sparse(300, 30, 0.2, 504);
  const auto y = la::regression_labels(X, 504, 0.1);
  run_lr_cg_script(rt, X, y, PlanMode::kHardcodedPass);
  const auto ops = traced_ops(rt);
  // Table 1, LR row: a*X^T*y and X^T*(X*y)+b*z.
  EXPECT_EQ(ops.count("transposed_product"), 1u);
  EXPECT_EQ(ops.count("pattern[bz]"), 1u);
  EXPECT_EQ(ops.count("pattern[v]"), 0u);
  EXPECT_EQ(ops.count("pattern[v,bz]"), 0u);
}

TEST(LrCg, StatsSplitPatternVsBlas1) {
  vgpu::Device dev;
  sysml::Runtime rt(dev, on_device());
  // Large enough that kernel work dwarfs per-launch overhead — the regime
  // Table 2 measures (82.9-99.4% of time in the pattern).
  const auto X = uniform_sparse(50000, 300, 0.05, 505);
  const auto y = la::regression_labels(X, 505, 0.1);
  ScriptConfig cfg;
  cfg.max_iterations = 10;
  const auto r = run_lr_cg_script(rt, X, y, PlanMode::kHardcodedPass, cfg);
  double pattern_ms = 0.0, blas1_ms = 0.0;
  for (const auto& entry : rt.trace()) {
    (entry.pattern ? pattern_ms : blas1_ms) += entry.modeled_ms;
  }
  EXPECT_GT(pattern_ms, 0.0);
  EXPECT_GT(blas1_ms, 0.0);
  EXPECT_GT(pattern_ms, blas1_ms) << "the pattern dominates (Table 2's point)";
  EXPECT_GT(r.runtime_stats.kernel_launches, 0u);
}

// --- Logistic Regression (gradient descent) ------------------------------------------

/// Regularized logistic loss of `w` on (X, y), evaluated on the host.
real logistic_objective(const la::CsrMatrix& X, std::span<const real> y,
                        std::span<const real> w, real lambda) {
  const auto margins = la::reference::spmv(X, w);
  real f = 0;
  for (usize i = 0; i < margins.size(); ++i) {
    const real t = -y[i] * margins[i];
    f += t > 0 ? t + std::log1p(std::exp(-t)) : std::log1p(std::exp(t));
  }
  return f + real{0.5} * lambda * la::dot(w, w);
}

TEST(LogReg, SeparatesLinearlySeparableData) {
  vgpu::Device dev;
  sysml::Runtime rt(dev);
  const auto X = uniform_sparse(800, 30, 0.3, 511);
  const auto y = la::classification_labels(X, 511, 0.0);
  GdConfig cfg;
  cfg.iterations = 100;
  const auto result = run_logreg_gd_script(rt, X, y, PlanMode::kPlanner, cfg);

  const auto margins = la::reference::spmv(X, result.weights);
  int correct = 0;
  for (usize i = 0; i < margins.size(); ++i) {
    if ((margins[i] >= 0 ? 1.0 : -1.0) == y[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / margins.size(), 0.9);
}

TEST(LogReg, ObjectiveDecreasesWithIterations) {
  const auto X = uniform_sparse(400, 25, 0.3, 513);
  const auto y = la::classification_labels(X, 513, 0.2);
  GdConfig one, many;
  one.iterations = 1;
  many.iterations = 15;
  vgpu::Device dev_one, dev_many;
  sysml::Runtime rt_one(dev_one), rt_many(dev_many);
  const auto r1 = run_logreg_gd_script(rt_one, X, y, PlanMode::kPlanner, one);
  const auto r2 =
      run_logreg_gd_script(rt_many, X, y, PlanMode::kPlanner, many);
  EXPECT_LT(logistic_objective(X, y, r2.weights, many.lambda),
            logistic_objective(X, y, r1.weights, one.lambda));
}

// --- SVM ----------------------------------------------------------------------------

TEST(Svm, SeparatesAndShrinksSupportSet) {
  vgpu::Device dev;
  sysml::Runtime rt(dev);
  const auto X = uniform_sparse(600, 25, 0.3, 521);
  const auto y = la::classification_labels(X, 521, 0.0);
  SvmConfig cfg;
  cfg.C = 10.0;
  const auto result = run_svm_script(rt, X, y, PlanMode::kPlanner, cfg);

  const auto decision = la::reference::spmv(X, result.weights);
  int correct = 0, support = 0;
  for (usize i = 0; i < decision.size(); ++i) {
    if ((decision[i] >= 0 ? 1.0 : -1.0) == y[i]) ++correct;
    if (y[i] * decision[i] < 1) ++support;
  }
  EXPECT_GT(static_cast<double>(correct) / decision.size(), 0.9);
  EXPECT_LT(support, 600);
}

TEST(Svm, UsesOnlyNoVPatterns) {
  vgpu::Device dev;
  sysml::Runtime rt(dev);
  const auto X = uniform_sparse(300, 20, 0.3, 522);
  const auto y = la::classification_labels(X, 522, 0.1);
  run_svm_script(rt, X, y, PlanMode::kHardcodedPass);
  const auto ops = traced_ops(rt);
  // Table 1, SVM row: a*X^T*y, X^T*(X*y)(+b*z) — never the v forms.
  EXPECT_EQ(ops.count("transposed_product"), 1u);
  EXPECT_EQ(ops.count("pattern[bz]"), 1u);
  EXPECT_EQ(ops.count("pattern[v]"), 0u);
  EXPECT_EQ(ops.count("pattern[v,bz]"), 0u);
}

// --- GLM ------------------------------------------------------------------------------

TEST(Glm, PoissonRecoversRates) {
  vgpu::Device dev;
  sysml::Runtime rt(dev);
  // Small weights keep exp(eta) tame.
  const auto X = uniform_sparse(1500, 15, 0.4, 531);
  auto w_true = la::regression_true_weights(15, 531);
  for (real& w : w_true) w *= 0.3;
  auto eta = la::reference::spmv(X, w_true);
  Rng rng(531);
  std::vector<real> y(eta.size());
  for (usize i = 0; i < y.size(); ++i) {
    y[i] = static_cast<real>(rng.poisson(std::exp(eta[i])));
  }
  GlmConfig cfg;
  cfg.family = GlmFamily::kPoisson;
  const auto result = run_glm_script(rt, X, y, PlanMode::kPlanner, cfg);
  // Fitted linear predictor correlates strongly with the truth.
  const auto eta_fit = la::reference::spmv(X, result.weights);
  real num = 0, da = 0, db = 0;
  for (usize i = 0; i < eta.size(); ++i) {
    num += eta[i] * eta_fit[i];
    da += eta[i] * eta[i];
    db += eta_fit[i] * eta_fit[i];
  }
  EXPECT_GT(num / std::sqrt(da * db + 1e-30), 0.9);
}

TEST(Glm, GaussianReducesToLeastSquares) {
  vgpu::Device dev;
  sysml::Runtime rt(dev);
  const auto X = uniform_sparse(800, 20, 0.3, 532);
  const auto y = la::regression_labels(X, 532, 0.0);
  GlmConfig cfg;
  cfg.family = GlmFamily::kGaussian;
  const auto result = run_glm_script(rt, X, y, PlanMode::kPlanner, cfg);
  const auto w_true = la::regression_true_weights(20, 532);
  test::expect_vectors_near(w_true, result.weights, 1e-3);
}

TEST(Glm, UsesVWeightedPattern) {
  vgpu::Device dev;
  sysml::Runtime rt(dev);
  const auto X = uniform_sparse(300, 15, 0.3, 533);
  const auto y = la::classification_labels(X, 533, 0.1);
  std::vector<real> y01(y.size());
  for (usize i = 0; i < y.size(); ++i) y01[i] = y[i] > 0 ? 1.0 : 0.0;
  GlmConfig cfg;
  cfg.family = GlmFamily::kBinomial;
  run_glm_script(rt, X, y01, PlanMode::kHardcodedPass, cfg);
  // Table 1, GLM row: includes X^T(v⊙(Xy)) — here with +ridge z, the full
  // form.
  const auto ops = traced_ops(rt);
  EXPECT_EQ(ops.count("transposed_product"), 1u);
  EXPECT_EQ(ops.count("pattern[v,bz]"), 1u);
}

// --- HITS ------------------------------------------------------------------------------

TEST(Hits, FindsTheDominantAuthority) {
  vgpu::Device dev;
  sysml::Runtime rt(dev);
  // Star graph: every page links to page 0, page 0 links to page 1.
  la::CooMatrix coo(20, 20);
  for (index_t i = 1; i < 20; ++i) coo.add(i, 0, 1.0);
  coo.add(0, 1, 1.0);
  const auto X = la::coo_to_csr(coo);
  const HitsConfig cfg;
  const auto result = run_hits_script(rt, X, PlanMode::kPlanner, cfg);
  EXPECT_LT(result.iterations, cfg.max_iterations) << "converged";
  // Page 0 is the clear authority.
  const auto& authorities = result.weights;
  usize argmax = 0;
  for (usize j = 1; j < authorities.size(); ++j) {
    if (authorities[j] > authorities[argmax]) argmax = j;
  }
  EXPECT_EQ(argmax, 0u);
  // Scores are unit-normalized.
  EXPECT_NEAR(la::nrm2(authorities), 1.0, 1e-9);
}

TEST(Hits, UsesXtXyPattern) {
  vgpu::Device dev;
  sysml::Runtime rt(dev);
  const auto X = uniform_sparse(50, 50, 0.1, 541);
  run_hits_script(rt, X, PlanMode::kHardcodedPass, {.max_iterations = 5});
  EXPECT_EQ(traced_ops(rt).count("pattern"), 1u);
}

TEST(Hits, AgreesAcrossBackends) {
  const auto X = uniform_sparse(60, 40, 0.15, 542);
  vgpu::Device dev_a, dev_b;
  sysml::Runtime a(dev_a, on_device());
  sysml::Runtime b(dev_b, {.enable_gpu = false});
  const auto ra = run_hits_script(a, X, PlanMode::kPlanner,
                                  {.max_iterations = 20});
  const auto rb = run_hits_script(b, X, PlanMode::kPlanner,
                                  {.max_iterations = 20});
  test::expect_vectors_near(ra.weights, rb.weights, 1e-7);
}

}  // namespace
}  // namespace fusedml::ml
