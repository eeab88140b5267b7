// The single-IR contract: the lr-cg, glm, svm and hits scripts of the
// generated ScriptLibrary (ml/script_library.h) reproduce the weights of
// the imperative solvers they replaced TO THE LAST BIT on the device path
// (those solvers' weights are frozen in tests/golden/legacy_oracles.golden),
// the planner strictly reduces kernel launches where hand-wired code left
// fusion opportunities on the table (glm / svm / hits), plan-vs-actual
// audits show zero drift, and the per-shape plan cache amortizes planning
// across solver iterations.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/rng.h"
#include "la/convert.h"
#include "la/generate.h"
#include "la/vector_ops.h"
#include "ml/script_library.h"
#include "sysml/runtime.h"
#include "test_util.h"
#include "vgpu/device.h"
#include "vgpu/fault_injector.h"

namespace fusedml {
namespace {

using ml::Algorithm;
using sysml::PlanMode;

// The imperative solvers whose weights are frozen ran every op they
// offloaded on the fused device kernels. gpu_cost_bias forces the runtime's
// scheduler onto the same venue at test scale, which is what makes EXPECT_EQ
// (not NEAR) the right assertion against the frozen weights.
sysml::RuntimeOptions forced_gpu() {
  return {.enable_gpu = true, .gpu_cost_bias = 1e-4};
}

std::vector<real> poisson_labels(const la::CsrMatrix& X, std::uint64_t seed) {
  auto w_true = la::regression_true_weights(X.cols(), seed);
  for (real& w : w_true) w *= 0.3;  // keep exp(eta) tame
  const auto eta = la::reference::spmv(X, w_true);
  Rng rng(seed);
  std::vector<real> y(eta.size());
  for (usize i = 0; i < y.size(); ++i) {
    y[i] = static_cast<real>(rng.poisson(std::exp(eta[i])));
  }
  return y;
}

// --- Bit-exactness oracles: script (planner) vs frozen legacy weights -------

TEST(ScriptOracle, LrCgBitMatchesLegacyImperativeCsr) {
  const auto X = la::uniform_sparse(1200, 80, 0.05, 601);
  const auto y = la::regression_labels(X, 601, 0.1);

  vgpu::Device dev;
  sysml::Runtime rt(dev, forced_gpu());
  ml::ScriptConfig cfg;
  cfg.max_iterations = 12;
  cfg.tolerance = 0;
  const auto script = ml::run_lr_cg_script(rt, X, y, PlanMode::kPlanner, cfg);

  const auto frozen = test::frozen_weights("lr_cg_csr");
  ASSERT_FALSE(frozen.empty());
  EXPECT_EQ(frozen, script.weights);
  EXPECT_EQ(script.iterations, 12);
}

TEST(ScriptOracle, LrCgBitMatchesLegacyImperativeDense) {
  const auto Xs = la::uniform_sparse(600, 40, 0.2, 602);
  const auto X = la::csr_to_dense(Xs);
  const auto y = la::regression_labels(Xs, 602, 0.1);

  vgpu::Device dev;
  sysml::Runtime rt(dev, forced_gpu());
  ml::ScriptConfig cfg;
  cfg.max_iterations = 8;
  cfg.tolerance = 0;
  const auto script = ml::run_lr_cg_script(rt, X, y, PlanMode::kPlanner, cfg);

  const auto frozen = test::frozen_weights("lr_cg_dense");
  ASSERT_FALSE(frozen.empty());
  EXPECT_EQ(frozen, script.weights);
}

TEST(ScriptOracle, GlmPoissonBitMatchesLegacyImperative) {
  const auto X = la::uniform_sparse(500, 14, 0.3, 603);
  const auto y = poisson_labels(X, 603);
  ml::GlmConfig cfg;
  cfg.family = ml::GlmFamily::kPoisson;
  cfg.max_irls_iterations = 6;

  vgpu::Device dev;
  sysml::Runtime rt(dev, forced_gpu());
  const auto script = ml::run_glm_script(rt, X, y, PlanMode::kPlanner, cfg);

  const auto frozen = test::frozen_weights("glm_poisson");
  ASSERT_FALSE(frozen.empty());
  EXPECT_EQ(frozen, script.weights);
}

TEST(ScriptOracle, GlmGaussianBitMatchesLegacyImperative) {
  const auto X = la::uniform_sparse(400, 16, 0.3, 604);
  const auto y = la::regression_labels(X, 604, 0.0);
  ml::GlmConfig cfg;
  cfg.family = ml::GlmFamily::kGaussian;
  cfg.max_irls_iterations = 4;

  vgpu::Device dev;
  sysml::Runtime rt(dev, forced_gpu());
  const auto script = ml::run_glm_script(rt, X, y, PlanMode::kPlanner, cfg);

  const auto frozen = test::frozen_weights("glm_gaussian");
  ASSERT_FALSE(frozen.empty());
  EXPECT_EQ(frozen, script.weights);
}

TEST(ScriptOracle, SvmBitMatchesLegacyImperative) {
  const auto X = la::uniform_sparse(300, 20, 0.3, 605);
  const auto y = la::classification_labels(X, 605, 0.1);
  ml::SvmConfig cfg;
  cfg.max_newton_iterations = 5;

  vgpu::Device dev;
  sysml::Runtime rt(dev, forced_gpu());
  const auto script = ml::run_svm_script(rt, X, y, PlanMode::kPlanner, cfg);

  const auto frozen = test::frozen_weights("svm");
  ASSERT_FALSE(frozen.empty());
  EXPECT_EQ(frozen, script.weights);
}

TEST(ScriptOracle, HitsBitMatchesLegacyImperative) {
  const auto X = la::uniform_sparse(80, 60, 0.1, 606);
  ml::HitsConfig cfg;
  cfg.max_iterations = 10;
  cfg.tolerance = 0;

  vgpu::Device dev;
  sysml::Runtime rt(dev, forced_gpu());
  const auto script = ml::run_hits_script(rt, X, PlanMode::kPlanner, cfg);

  const auto frozen = test::frozen_weights("hits");
  ASSERT_FALSE(frozen.empty());
  EXPECT_EQ(frozen, script.weights);
}

// The logreg-gd script has no frozen imperative twin (the imperative logreg
// was a trust-region solver), so its oracle is the mode cross-check: the
// planner only fuses elementwise chains here, which are bit-equal to
// op-at-a-time evaluation by construction.
TEST(ScriptOracle, LogregGdAllModesBitEqual) {
  const auto X = la::uniform_sparse(800, 40, 0.05, 607);
  const auto y = la::classification_labels(X, 607, 0.1);
  ml::GdConfig cfg;
  cfg.iterations = 10;

  std::vector<std::vector<real>> weights;
  for (const auto mode : {PlanMode::kUnfused, PlanMode::kHardcodedPass,
                          PlanMode::kPlanner}) {
    vgpu::Device dev;
    sysml::Runtime rt(dev, forced_gpu());
    weights.push_back(ml::run_logreg_gd_script(rt, X, y, mode, cfg).weights);
  }
  EXPECT_EQ(weights[0], weights[1]);
  EXPECT_EQ(weights[0], weights[2]);
}

// --- Seeded fault storms leave every script bit-exact ------------------------

TEST(ScriptOracle, SeededFaultsBitExactAcrossAllAlgorithms) {
  const auto X = la::uniform_sparse(400, 24, 0.1, 608);
  const auto y_reg = la::regression_labels(X, 608, 0.1);
  const auto y_cls = la::classification_labels(X, 608, 0.1);

  vgpu::FaultConfig fc;
  fc.seed = 0xFA17ULL;
  fc.kernel_fault_rate = 0.05;
  fc.ecc_fault_rate = 0.03;
  fc.transfer_fault_rate = 0.05;

  for (const auto& spec : ml::script_library()) {
    if (spec.dense || spec.mode != PlanMode::kPlanner) continue;
    std::span<const real> labels =
        (spec.algorithm == Algorithm::kLogregGd ||
         spec.algorithm == Algorithm::kSvm)
            ? std::span<const real>(y_cls)
            : std::span<const real>(y_reg);

    vgpu::Device clean_dev;
    sysml::Runtime clean_rt(clean_dev, forced_gpu());
    const auto clean = spec.run_sparse(clean_rt, X, labels, 3);

    vgpu::FaultInjector inj(fc);
    vgpu::Device faulty_dev;
    faulty_dev.set_fault_injector(&inj);
    sysml::Runtime faulty_rt(faulty_dev, forced_gpu());
    const auto faulty = spec.run_sparse(faulty_rt, X, labels, 3);

    EXPECT_EQ(clean.weights, faulty.weights) << spec.name;
    if (faulty_rt.resilience().fallbacks != 0) {
      ADD_FAILURE() << spec.name << ": fell back off-device, venue changed";
    }
  }
}

// --- The planner strictly beats the unfused interpretation -------------------

TEST(ScriptModes, PlannerStrictlyReducesLaunchesForGlmSvmHits) {
  const auto X = la::uniform_sparse(500, 24, 0.1, 609);
  const auto y_reg = la::regression_labels(X, 609, 0.1);
  const auto y_cls = la::classification_labels(X, 609, 0.1);

  const struct {
    Algorithm algorithm;
    std::span<const real> labels;
  } cases[] = {{Algorithm::kGlm, y_reg},
               {Algorithm::kSvm, y_cls},
               {Algorithm::kHits, {}}};

  for (const auto& c : cases) {
    std::uint64_t launches[2] = {0, 0};
    std::vector<real> weights[2];
    const PlanMode modes[2] = {PlanMode::kUnfused, PlanMode::kPlanner};
    for (int i = 0; i < 2; ++i) {
      const auto* spec = ml::find_script(c.algorithm, false, modes[i]);
      ASSERT_NE(spec, nullptr);
      vgpu::Device dev;
      sysml::Runtime rt(dev, forced_gpu());
      const auto r = spec->run_sparse(rt, X, c.labels, 4);
      launches[i] = r.runtime_stats.kernel_launches;
      weights[i] = r.weights;
      if (modes[i] == PlanMode::kPlanner) {
        EXPECT_GT(r.fused_groups, 0) << spec->name;
        if (r.plan_audit.has_prediction) {
          EXPECT_EQ(r.plan_audit.launch_drift(), 0) << spec->name;
        }
      }
    }
    EXPECT_LT(launches[1], launches[0]) << to_string(c.algorithm);
    // The fused pattern kernel re-associates the X^T reduction, so unfused
    // vs planner is a numeric (not bitwise) comparison.
    ASSERT_EQ(weights[0].size(), weights[1].size());
    for (usize j = 0; j < weights[0].size(); ++j) {
      EXPECT_NEAR(weights[0][j], weights[1][j],
                  1e-4 * (1.0 + std::abs(weights[0][j])))
          << to_string(c.algorithm) << " weight " << j;
    }
  }
}

// The four new workloads exercise the planner's new template families.
// None of their DAGs contain an Equation-1 site, so the planner's rewrites
// (row template, sddmm, elementwise chains) are bit-preserving and the
// planner must match the unfused interpretation EXACTLY while strictly
// reducing launches.
TEST(ScriptModes, PlannerStrictlyReducesLaunchesForNewAlgorithms) {
  const auto X = la::uniform_sparse(300, 40, 0.08, 614);
  const auto y_cls = la::classification_labels(X, 614, 0.1);

  for (const auto alg : {Algorithm::kAls, Algorithm::kKmeans,
                         Algorithm::kPagerank, Algorithm::kMinibatchLogreg}) {
    std::span<const real> labels =
        alg == Algorithm::kMinibatchLogreg ? std::span<const real>(y_cls)
                                           : std::span<const real>{};
    std::uint64_t launches[2] = {0, 0};
    std::vector<real> weights[2];
    std::string plan_explain;
    const PlanMode modes[2] = {PlanMode::kUnfused, PlanMode::kPlanner};
    for (int i = 0; i < 2; ++i) {
      const auto* spec = ml::find_script(alg, false, modes[i]);
      ASSERT_NE(spec, nullptr);
      vgpu::Device dev;
      sysml::Runtime rt(dev, forced_gpu());
      const auto r = spec->run_sparse(rt, X, labels, 4);
      launches[i] = r.runtime_stats.kernel_launches;
      weights[i] = r.weights;
      if (modes[i] == PlanMode::kPlanner) {
        EXPECT_GT(r.fused_groups, 0) << spec->name;
        if (r.plan_audit.has_prediction) {
          EXPECT_EQ(r.plan_audit.launch_drift(), 0) << spec->name;
        }
        plan_explain = r.plan_explain;
      }
    }
    EXPECT_LT(launches[1], launches[0]) << to_string(alg);
    EXPECT_EQ(weights[0], weights[1]) << to_string(alg);
    if (alg == Algorithm::kAls) {
      // The Hessian-vector product must collapse into the
      // sparsity-exploiting fused kernel, not stay a disjoint chain.
      EXPECT_NE(plan_explain.find("sddmm"), std::string::npos)
          << plan_explain;
    }
  }
}

TEST(ScriptModes, PlannerMatchesHardcodedPassBitExactly) {
  // Both modes plan through plan_fusion: the hardcoded pass is the planner
  // restricted to the Equation-1 family, and every additional elementwise
  // group the full planner fuses is bit-preserving — so the two prepared
  // plans must agree to the last bit on every algorithm and storage. Both
  // arm a plan prediction, and the plan-vs-actual audit sees zero drift.
  const auto X = la::uniform_sparse(400, 20, 0.1, 610);
  const auto Xd = la::csr_to_dense(X);
  const auto y_reg = la::regression_labels(X, 610, 0.1);
  const auto y_cls = la::classification_labels(X, 610, 0.1);

  for (const bool dense : {false, true}) {
    for (const auto alg :
         {Algorithm::kLrCg, Algorithm::kLogregGd, Algorithm::kGlm,
          Algorithm::kSvm, Algorithm::kHits, Algorithm::kAls,
          Algorithm::kKmeans, Algorithm::kPagerank,
          Algorithm::kMinibatchLogreg}) {
      std::span<const real> labels =
          (alg == Algorithm::kLogregGd || alg == Algorithm::kSvm ||
           alg == Algorithm::kMinibatchLogreg)
              ? std::span<const real>(y_cls)
              : std::span<const real>(y_reg);
      std::vector<real> got[2];
      const PlanMode modes[2] = {PlanMode::kHardcodedPass, PlanMode::kPlanner};
      for (int i = 0; i < 2; ++i) {
        const auto* spec = ml::find_script(alg, dense, modes[i]);
        ASSERT_NE(spec, nullptr);
        vgpu::Device dev;
        sysml::Runtime rt(dev, forced_gpu());
        const auto r = dense ? spec->run_dense(rt, Xd, labels, 4)
                             : spec->run_sparse(rt, X, labels, 4);
        got[i] = r.weights;
        EXPECT_TRUE(r.plan_audit.has_prediction) << spec->name;
        EXPECT_EQ(r.plan_audit.launch_drift(), 0) << spec->name;
      }
      EXPECT_EQ(got[0], got[1])
          << (dense ? "dense " : "csr ") << to_string(alg);
    }
  }
}

// --- Tensor lifetime: a solver's live tensors do not grow with iterations ---

TEST(TensorLifetime, LiveTensorsDoNotGrowWithTheIterationCap) {
  const auto X = la::uniform_sparse(200, 30, 0.1, 616);
  const auto Xd = la::csr_to_dense(X);
  const auto y_reg = la::regression_labels(X, 616, 0.1);
  const auto y_cls = la::classification_labels(X, 616, 0.1);

  for (const ml::ScriptSpec& spec : ml::script_library()) {
    const bool cls = spec.algorithm == Algorithm::kLogregGd ||
                     spec.algorithm == Algorithm::kSvm ||
                     spec.algorithm == Algorithm::kMinibatchLogreg;
    const std::span<const real> labels =
        cls ? std::span<const real>(y_cls) : std::span<const real>(y_reg);
    usize live[2] = {0, 0};
    const int caps[2] = {1, 6};
    for (int i = 0; i < 2; ++i) {
      vgpu::Device dev;
      sysml::Runtime rt(dev, forced_gpu());
      if (spec.dense) {
        spec.run_dense(rt, Xd, labels, caps[i]);
      } else {
        spec.run_sparse(rt, X, labels, caps[i]);
      }
      live[i] = rt.live_tensors();
    }
    EXPECT_EQ(live[0], live[1]) << spec.name;
  }
}

// --- Plan caching: planning cost is paid once per solver, not per iteration --

TEST(ScriptCache, HitsAmortizesPlanningAcrossIterations) {
  const auto X = la::uniform_sparse(120, 90, 0.08, 611);
  ml::HitsConfig cfg;
  cfg.max_iterations = 12;
  cfg.tolerance = 0;

  vgpu::Device dev;
  sysml::Runtime rt(dev, forced_gpu());
  const auto r = ml::run_hits_script(rt, X, PlanMode::kPlanner, cfg);

  EXPECT_EQ(r.iterations, 12);
  // One plan for the refresh program, one for the hub read-out; every
  // further iteration re-binds "a" and hits the cache.
  EXPECT_LE(r.plans_built, 2);
  EXPECT_GE(r.plan_cache_hits, r.iterations - 1);
}

TEST(ScriptCache, LrCgPlansOnceForTheWholeSolve) {
  const auto X = la::uniform_sparse(600, 40, 0.05, 612);
  const auto y = la::regression_labels(X, 612, 0.1);
  ml::ScriptConfig cfg;
  cfg.max_iterations = 9;
  cfg.tolerance = 0;

  vgpu::Device dev;
  sysml::Runtime rt(dev, forced_gpu());
  const auto r = ml::run_lr_cg_script(rt, X, y, PlanMode::kPlanner, cfg);

  EXPECT_EQ(r.plans_built, 1);
  EXPECT_EQ(r.iterations, 9);
  ASSERT_TRUE(r.plan_audit.has_prediction);
  EXPECT_EQ(r.plan_audit.launch_drift(), 0);
}

// --- The generated library covers the whole cross product --------------------

TEST(ScriptLibrary, CoversAlgorithmByStorageByPlanMode) {
  const auto& lib = ml::script_library();
  EXPECT_EQ(lib.size(), 9u * 2u * 3u);

  std::set<std::string> names;
  for (const auto& spec : lib) {
    EXPECT_TRUE(names.insert(spec.name).second) << "duplicate " << spec.name;
    if (spec.dense) {
      EXPECT_TRUE(spec.run_dense != nullptr) << spec.name;
      EXPECT_TRUE(spec.run_sparse == nullptr) << spec.name;
    } else {
      EXPECT_TRUE(spec.run_sparse != nullptr) << spec.name;
      EXPECT_TRUE(spec.run_dense == nullptr) << spec.name;
    }
    EXPECT_EQ(ml::find_script(spec.name), &spec);
    EXPECT_EQ(ml::find_script(spec.algorithm, spec.dense, spec.mode), &spec);
  }
  EXPECT_NE(ml::find_script("glm/csr/planner"), nullptr);
  EXPECT_EQ(ml::find_script("no/such/script"), nullptr);
}

TEST(ScriptLibrary, DenseEntriesRunAndModesAgree) {
  const auto Xs = la::uniform_sparse(200, 16, 0.25, 613);
  const auto X = la::csr_to_dense(Xs);
  const auto y_reg = la::regression_labels(Xs, 613, 0.1);
  const auto y_cls = la::classification_labels(Xs, 613, 0.1);

  for (const auto alg :
       {Algorithm::kLrCg, Algorithm::kLogregGd, Algorithm::kGlm,
        Algorithm::kSvm, Algorithm::kHits, Algorithm::kAls, Algorithm::kKmeans,
        Algorithm::kPagerank, Algorithm::kMinibatchLogreg}) {
    std::span<const real> labels =
        (alg == Algorithm::kLogregGd || alg == Algorithm::kSvm ||
         alg == Algorithm::kMinibatchLogreg)
            ? std::span<const real>(y_cls)
            : std::span<const real>(y_reg);
    std::vector<real> got[2];
    const PlanMode modes[2] = {PlanMode::kHardcodedPass, PlanMode::kPlanner};
    for (int i = 0; i < 2; ++i) {
      const auto* spec = ml::find_script(alg, /*dense=*/true, modes[i]);
      ASSERT_NE(spec, nullptr);
      vgpu::Device dev;
      sysml::Runtime rt(dev, forced_gpu());
      got[i] = spec->run_dense(rt, X, labels, 3).weights;
      EXPECT_FALSE(got[i].empty()) << spec->name;
    }
    EXPECT_EQ(got[0], got[1]) << "dense " << to_string(alg);
  }
}

}  // namespace
}  // namespace fusedml
