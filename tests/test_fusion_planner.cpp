// Tests for the cost-based fusion planner (sysml/fusion_planner.h): the
// generalization of the hardcoded Equation-1 rewrite into candidate
// enumeration + vgpu-cost-model scoring, plus the generated elementwise
// chain kernels and the DAG-building script entry points.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "la/generate.h"
#include "la/vector_ops.h"
#include "ml/script_library.h"
#include "sysml/dag.h"
#include "sysml/expr.h"
#include "sysml/fusion_planner.h"
#include "sysml/runtime.h"
#include "test_util.h"
#include "vgpu/device.h"

namespace fusedml {
namespace {

using test::expect_vectors_near;

real double_it(real t) { return t + t; }

struct PlannerFixture : ::testing::Test {
  vgpu::Device dev;
  sysml::Runtime rt{dev, {.enable_gpu = true, .gpu_cost_bias = 1e-4}};
  la::CsrMatrix X = la::uniform_sparse(800, 120, 0.05, 901);
  std::vector<real> y = la::random_vector(120, 1);
  std::vector<real> v = la::random_vector(800, 2);
  std::vector<real> z = la::random_vector(120, 3);
};

TEST_F(PlannerFixture, ChoosesEquation1LikeTheHardcodedPass) {
  const auto Xid = rt.add_sparse(X, "X");
  const auto root = sysml::pattern_expression(
      0.5, sysml::input_matrix(Xid),
      sysml::input_vector(rt.add_vector(v, "v")),
      sysml::input_vector(rt.add_vector(y, "y")), 2.0,
      sysml::input_vector(rt.add_vector(z, "z")));

  const auto plan = sysml::plan_fusion(rt, root);
  ASSERT_EQ(plan.groups.size(), 1u);
  EXPECT_EQ(plan.groups[0].kind, "equation1");
  EXPECT_EQ(plan.root->kind, sysml::OpKind::kFusedPattern);
  EXPECT_LT(plan.launches_planned, plan.launches_unfused);
  EXPECT_LE(plan.modeled_planned_ms, plan.modeled_unfused_ms);

  // Same runtime executes both DAGs: the plan must match the oracle and be
  // identical to what the hardcoded pass produces.
  const auto got_planned = rt.read_vector(sysml::execute(rt, plan.root));
  expect_vectors_near(la::reference::pattern(0.5, X, v, y, 2.0, z),
                      got_planned, 1e-8);
  const auto hardcoded = sysml::plan_fusion(rt, root, sysml::equation1_only());
  const auto got_hardcoded =
      rt.read_vector(sysml::execute(rt, hardcoded.root));
  EXPECT_EQ(std::vector<real>(got_planned.begin(), got_planned.end()),
            std::vector<real>(got_hardcoded.begin(), got_hardcoded.end()));
}

TEST_F(PlannerFixture, InputDagIsLeftUntouched) {
  const auto root = sysml::pattern_expression(
      1.0, sysml::input_matrix(rt.add_sparse(X, "X")), nullptr,
      sysml::input_vector(rt.add_vector(y, "y")), 0, nullptr);
  const auto kind_before = root->kind;
  const int nodes_before = sysml::count_nodes(root);

  const auto plan = sysml::plan_fusion(rt, root);
  EXPECT_EQ(root->kind, kind_before);
  EXPECT_EQ(sysml::count_nodes(root), nodes_before);
  EXPECT_NE(plan.root.get(), root.get());
}

TEST_F(PlannerFixture, ElementwiseChainCollapsesToOneGeneratedKernel) {
  const usize n = 512;
  const auto a = la::random_vector(n, 10);
  const auto b = la::random_vector(n, 11);
  const auto c = la::random_vector(n, 12);
  const auto an = sysml::input_vector(rt.add_vector(a, "a"));
  const auto bn = sysml::input_vector(rt.add_vector(b, "b"));
  const auto cn = sysml::input_vector(rt.add_vector(c, "c"));
  // 2 * sigma(a + b ⊙ c): four elementwise operators, one kernel.
  const auto root = sysml::scale(
      2.0, sysml::map(sysml::add(an, sysml::ewise_mul(bn, cn)),
                      ml::stable_sigmoid, "sigmoid"));

  const auto plan = sysml::plan_fusion(rt, root);
  ASSERT_EQ(plan.groups.size(), 1u);
  EXPECT_EQ(plan.groups[0].kind, "ewise_chain");
  EXPECT_EQ(plan.groups[0].nodes_covered, 4);
  EXPECT_EQ(plan.root->kind, sysml::OpKind::kFusedEwise);
  EXPECT_EQ(plan.launches_unfused, 4u);
  EXPECT_EQ(plan.launches_planned, 1u);

  // Bit-exact vs the unfused interpreter: same per-element operation order.
  const auto unfused = rt.read_vector(sysml::execute(rt, root));
  const std::vector<real> want(unfused.begin(), unfused.end());
  const auto fused = rt.read_vector(sysml::execute(rt, plan.root));
  EXPECT_EQ(want, std::vector<real>(fused.begin(), fused.end()));
}

TEST_F(PlannerFixture, SharedIntermediateIsNeverAbsorbed) {
  // u = a + b feeds BOTH the map chain and the final add: u must
  // materialize, so it may sink one region but cannot vanish inside it.
  const usize n = 256;
  const auto a = la::random_vector(n, 20);
  const auto b = la::random_vector(n, 21);
  const auto an = sysml::input_vector(rt.add_vector(a, "a"));
  const auto bn = sysml::input_vector(rt.add_vector(b, "b"));
  const auto u = sysml::add(an, bn);
  const auto root =
      sysml::add(sysml::map(u, double_it, "double"), sysml::scale(3.0, u));

  const auto plan = sysml::plan_fusion(rt, root);
  const auto unfused = rt.read_vector(sysml::execute(rt, root));
  const std::vector<real> want(unfused.begin(), unfused.end());
  const auto fused = rt.read_vector(sysml::execute(rt, plan.root));
  EXPECT_EQ(want, std::vector<real>(fused.begin(), fused.end()));
  EXPECT_LE(plan.launches_planned, plan.launches_unfused);
}

TEST_F(PlannerFixture, MultiConsumerPatternRejectedButEwiseStillHelps) {
  // m = X*y consumed by the MvT AND by the epilogue: Equation-1 fusion
  // would recompute m while also reading it — the materialization analysis
  // must reject it. The scale+add epilogue is still a legal ewise fusion.
  const auto Xs = la::uniform_sparse(120, 120, 0.05, 905);
  const auto ys = la::random_vector(120, 4);
  const auto Xn = sysml::input_matrix(rt.add_sparse(Xs, "Xs"));
  const auto yn = sysml::input_vector(rt.add_vector(ys, "ys"));
  const auto m = sysml::mv(Xn, yn);
  const auto root = sysml::add(sysml::mvt(Xn, m), sysml::scale(2.0, m));

  const auto plan = sysml::plan_fusion(rt, root);
  EXPECT_GE(plan.rejected_multi_consumer, 1);
  for (const auto& g : plan.groups) EXPECT_NE(g.kind, "equation1");

  const auto got = rt.read_vector(sysml::execute(rt, plan.root));
  auto want = la::reference::pattern(1.0, Xs, {}, ys, 0, {});
  const auto m_ref = la::reference::spmv(Xs, ys);
  la::axpy(2.0, m_ref, want);
  expect_vectors_near(want, got, 1e-8);
}

TEST_F(PlannerFixture, MoreFusionNeverIncreasesModeledLaunches) {
  // Costing monotonicity over the planner's own knobs: none >= pattern-only
  // >= both, on a DAG offering both candidate families.
  const auto Xid = rt.add_sparse(X, "X");
  const auto wid = rt.add_vector(y, "w");
  const auto nyid = rt.add_vector(v, "ny");
  const auto Xn = sysml::input_matrix(Xid);
  const auto wn = sysml::input_vector(wid);
  const auto nyn = sysml::input_vector(nyid);
  const auto resid = sysml::ewise_mul(
      sysml::map(sysml::ewise_mul(nyn, sysml::mv(Xn, wn)),
                 ml::stable_sigmoid, "sigmoid"),
      nyn);
  const auto root =
      sysml::add(sysml::mvt(Xn, resid), sysml::scale(0.01, wn));

  const auto none = sysml::plan_fusion(
      rt, root,
      {.enable_pattern_fusion = false, .enable_ewise_fusion = false,
       .enable_row_fusion = false, .enable_sddmm_fusion = false});
  const auto pattern_only = sysml::plan_fusion(
      rt, root,
      {.enable_pattern_fusion = true, .enable_ewise_fusion = false,
       .enable_row_fusion = false, .enable_sddmm_fusion = false});
  const auto both = sysml::plan_fusion(
      rt, root, {.enable_pattern_fusion = true, .enable_ewise_fusion = true});

  EXPECT_EQ(none.launches_planned, none.launches_unfused);
  EXPECT_LE(pattern_only.launches_planned, none.launches_planned);
  EXPECT_LE(both.launches_planned, pattern_only.launches_planned);
  EXPECT_LT(both.launches_planned, none.launches_planned);
  EXPECT_LE(both.modeled_planned_ms, pattern_only.modeled_planned_ms);
  EXPECT_LE(pattern_only.modeled_planned_ms, none.modeled_planned_ms);
}

TEST_F(PlannerFixture, ExplainDescribesGroupsAndTotals) {
  const auto root = sysml::pattern_expression(
      1.0, sysml::input_matrix(rt.add_sparse(X, "X")), nullptr,
      sysml::input_vector(rt.add_vector(y, "y")), 0.5,
      sysml::input_vector(rt.add_vector(z, "z")));
  const auto plan = sysml::plan_fusion(rt, root);
  const auto text = plan.explain();
  EXPECT_NE(text.find("fusion plan: 1 group(s)"), std::string::npos) << text;
  EXPECT_NE(text.find("equation1"), std::string::npos);
  EXPECT_NE(text.find("totals: launches"), std::string::npos);

  rt.note_plan(text);
  sysml::execute(rt, plan.root);
  const auto full = rt.explain();
  EXPECT_NE(full.find("fusion plan"), std::string::npos) << full;
  EXPECT_NE(full.find("execution:"), std::string::npos) << full;
  EXPECT_NE(full.find("pattern"), std::string::npos);

  // Multi-output programs and multi-program scripts concatenate plans: each
  // one must end its own line, so no plan's totals run into the next
  // "output" header.
  sysml::ExprBuilder b;
  const auto Xe = b.matrix("X");
  const auto ye = b.vector("y");
  b.output("p", sysml::ExprBuilder::spmv(Xe, ye));
  b.output("q", sysml::ExprBuilder::add(
                    sysml::ExprBuilder::spmv_t(Xe, sysml::ExprBuilder::spmv(
                                                       Xe, ye)),
                    sysml::ExprBuilder::scale(0.5, ye)));
  sysml::Program prog = b.build();
  prog.bind("X", rt.add_sparse(X, "X2"));
  prog.bind("y", rt.add_vector(y, "y2"));
  prog.prepare(rt, sysml::PlanMode::kPlanner);
  vgpu::Device glm_dev;
  sysml::Runtime glm_rt(glm_dev);
  const auto glm = ml::run_glm_script(
      glm_rt, X, la::classification_labels(X, 902, 0.1),
      sysml::PlanMode::kPlanner, {.max_irls_iterations = 2});
  for (const std::string& joined : {prog.plan_explain(), glm.plan_explain}) {
    ASSERT_NE(joined.find("output"), std::string::npos) << joined;
    EXPECT_EQ(joined.back(), '\n');
    std::istringstream lines(joined);
    for (std::string line; std::getline(lines, line);) {
      EXPECT_EQ(line.find("msoutput"), std::string::npos) << line;
      const auto header = line.find("output ");
      if (header != std::string::npos) {
        EXPECT_EQ(header, 0u) << line;
      }
    }
  }
}

// --- DAG-building scripts through every plan mode ---------------------------

TEST(PlannerScripts, LrCgPlannerMatchesHardcodedBitExact) {
  const auto X = la::uniform_sparse(2000, 300, 0.02, 41);
  const auto labels = la::regression_labels(X, 41, 0.1);
  ml::ScriptConfig cfg;
  cfg.max_iterations = 8;
  cfg.tolerance = 0;

  std::vector<sysml::ScriptResult> runs;
  for (const auto mode :
       {sysml::PlanMode::kUnfused, sysml::PlanMode::kHardcodedPass,
        sysml::PlanMode::kPlanner}) {
    vgpu::Device dev;
    sysml::Runtime rt(dev, {.enable_gpu = true, .gpu_cost_bias = 1e-4});
    runs.push_back(ml::run_lr_cg_script(rt, X, labels, mode, cfg));
  }
  const auto& unfused = runs[0];
  const auto& hardcoded = runs[1];
  const auto& planner = runs[2];

  EXPECT_EQ(hardcoded.fused_groups, 1);
  EXPECT_EQ(planner.fused_groups, 1);
  EXPECT_EQ(planner.weights, hardcoded.weights);  // identical plan chosen
  expect_vectors_near(unfused.weights, planner.weights, 1e-6);
  EXPECT_LT(planner.runtime_stats.kernel_launches,
            unfused.runtime_stats.kernel_launches);
  EXPECT_LE(planner.runtime_stats.kernel_launches,
            hardcoded.runtime_stats.kernel_launches);
  EXPECT_LE(planner.runtime_stats.total_ms(),
            hardcoded.runtime_stats.total_ms() * 1.0001);
}

TEST(PlannerScripts, LogregPlannerBeatsHardcodedPassBitExactly) {
  const auto X = la::uniform_sparse(2000, 300, 0.02, 43);
  const auto labels = la::classification_labels(X, 43, 0.1);
  ml::GdConfig cfg;
  cfg.iterations = 8;

  std::vector<sysml::ScriptResult> runs;
  for (const auto mode :
       {sysml::PlanMode::kUnfused, sysml::PlanMode::kHardcodedPass,
        sysml::PlanMode::kPlanner}) {
    vgpu::Device dev;
    sysml::Runtime rt(dev, {.enable_gpu = true, .gpu_cost_bias = 1e-4});
    runs.push_back(ml::run_logreg_gd_script(rt, X, labels, mode, cfg));
  }
  const auto& unfused = runs[0];
  const auto& hardcoded = runs[1];
  const auto& planner = runs[2];

  // No Equation-1 shape here: the template pass finds nothing...
  EXPECT_EQ(hardcoded.fused_groups, 0);
  EXPECT_EQ(hardcoded.runtime_stats.kernel_launches,
            unfused.runtime_stats.kernel_launches);
  // ...but the planner collapses the sigmoid chain and the +lambda*w
  // epilogue, strictly reducing launches, with bit-exact results.
  EXPECT_EQ(planner.fused_groups, 2);
  EXPECT_LT(planner.runtime_stats.kernel_launches,
            hardcoded.runtime_stats.kernel_launches);
  EXPECT_EQ(planner.weights, unfused.weights);
  EXPECT_FALSE(planner.plan_explain.empty());
  EXPECT_NE(planner.plan_explain.find("ewise_chain"), std::string::npos);
}

}  // namespace
}  // namespace fusedml
