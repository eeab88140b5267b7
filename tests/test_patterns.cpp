// Tests for the PatternExecutor facade: every backend produces identical
// values, pattern classification and usage recording work, and the fused
// backend wins on modeled time (the paper's core claim).
#include <gtest/gtest.h>

#include "common/error.h"
#include "la/generate.h"
#include "la/vector_ops.h"
#include "patterns/executor.h"
#include "patterns/pattern.h"
#include "test_util.h"

namespace fusedml::patterns {
namespace {

using la::random_vector;
using la::uniform_sparse;
using test::expect_vectors_near;

TEST(Pattern, Classification) {
  EXPECT_EQ(classify(true, false, false), PatternKind::kXty);
  EXPECT_EQ(classify(false, false, false), PatternKind::kXtXy);
  EXPECT_EQ(classify(false, true, false), PatternKind::kXtVXy);
  EXPECT_EQ(classify(false, false, true), PatternKind::kXtXyBz);
  EXPECT_EQ(classify(false, true, true), PatternKind::kFull);
}

TEST(Pattern, Table1MatchesPaper) {
  const auto rows = table1();
  ASSERT_EQ(rows.size(), 5u);
  // Spot-check the paper's marks: every algorithm uses a*X^T*y.
  EXPECT_TRUE(rows[0].lr && rows[0].glm && rows[0].logreg && rows[0].svm &&
              rows[0].hits);
  // The full pattern is LogReg-only.
  EXPECT_TRUE(rows[4].logreg);
  EXPECT_FALSE(rows[4].lr || rows[4].glm || rows[4].svm || rows[4].hits);
}

TEST(Pattern, ToStringDistinct) {
  EXPECT_NE(to_string(PatternKind::kXty), to_string(PatternKind::kFull));
  EXPECT_FALSE(to_string(Backend::kFused).empty());
}

class ExecutorBackends : public ::testing::TestWithParam<Backend> {
 protected:
  vgpu::Device dev;
};

TEST_P(ExecutorBackends, SparsePatternMatchesReference) {
  PatternExecutor exec(dev, GetParam());
  const auto X = uniform_sparse(400, 150, 0.05, 71);
  const auto y = random_vector(150, 1);
  const auto v = random_vector(400, 2);
  const auto z = random_vector(150, 3);
  const auto got = exec.pattern(1.5, X, v, y, -0.5, z);
  expect_vectors_near(la::reference::pattern(1.5, X, v, y, -0.5, z),
                      got.value);
  EXPECT_EQ(exec.usage().at(PatternKind::kFull), 1u);
  EXPECT_FALSE(got.kernel.empty());
}

TEST_P(ExecutorBackends, SparseTransposedProductMatches) {
  PatternExecutor exec(dev, GetParam());
  const auto X = uniform_sparse(300, 100, 0.05, 72);
  const auto y = random_vector(300, 4);
  auto expect = la::reference::spmv_transposed(X, y);
  la::scal(-2.0, expect);
  expect_vectors_near(expect, exec.transposed_product(X, y, -2.0).value);
}

TEST_P(ExecutorBackends, DensePatternMatches) {
  PatternExecutor exec(dev, GetParam());
  const auto X = la::dense_random(200, 96, 73);
  const auto y = random_vector(96, 5);
  expect_vectors_near(la::reference::pattern(1, X, {}, y, 0, {}),
                      exec.xt_xy(X, y).value);
}

TEST_P(ExecutorBackends, ProductAndBlas1Match) {
  PatternExecutor exec(dev, GetParam());
  const auto X = uniform_sparse(120, 80, 0.1, 74);
  const auto y = random_vector(80, 6);
  expect_vectors_near(la::reference::spmv(X, y), exec.product(X, y).value);

  auto a = random_vector(500, 7);
  auto b = random_vector(500, 8);
  EXPECT_NEAR(exec.dot(a, b).value[0], la::dot(a, b), 1e-9);
  EXPECT_NEAR(exec.nrm2(a).value[0], la::nrm2(a), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ExecutorBackends,
                         ::testing::Values(Backend::kFused,
                                           Backend::kCusparse,
                                           Backend::kBidmatGpu,
                                           Backend::kCpu),
                         [](const ::testing::TestParamInfo<Backend>& pinfo) {
                           switch (pinfo.param) {
                             case Backend::kFused: return "Fused";
                             case Backend::kCusparse: return "Cusparse";
                             case Backend::kBidmatGpu: return "BidmatGpu";
                             case Backend::kCpu: return "Cpu";
                           }
                           return "Unknown";
                         });

TEST(Executor, UsageHistogramRecordsKinds) {
  vgpu::Device dev;
  PatternExecutor exec(dev, Backend::kFused);
  const auto X = uniform_sparse(100, 50, 0.1, 75);
  const auto y = random_vector(50, 9);
  const auto ym = random_vector(100, 10);
  const auto v = random_vector(100, 11);
  exec.xt_xy(X, y);
  exec.xt_xy(X, y);
  exec.pattern(1, X, v, y, 0, {});
  exec.transposed_product(X, ym);
  const auto& usage = exec.usage();
  EXPECT_EQ(usage.at(PatternKind::kXtXy), 2u);
  EXPECT_EQ(usage.at(PatternKind::kXtVXy), 1u);
  EXPECT_EQ(usage.at(PatternKind::kXty), 1u);
  exec.reset_usage();
  EXPECT_TRUE(exec.usage().empty());
}

TEST(Executor, FusedBeatsBaselinesOnModeledTime) {
  vgpu::Device dev;
  const auto X = uniform_sparse(20000, 1000, 0.01, 76);
  const auto y = random_vector(1000, 12);
  PatternExecutor fused(dev, Backend::kFused);
  PatternExecutor cusparse(dev, Backend::kCusparse);
  PatternExecutor bidmat(dev, Backend::kBidmatGpu);
  const double t_fused = fused.xt_xy(X, y).modeled_ms;
  const double t_cusparse = cusparse.xt_xy(X, y).modeled_ms;
  const double t_bidmat = bidmat.xt_xy(X, y).modeled_ms;
  // The paper's ordering: fused < BIDMat-GPU < cuSPARSE (Fig. 3).
  EXPECT_LT(t_fused, t_bidmat);
  EXPECT_LT(t_bidmat, t_cusparse);
}

TEST(Executor, WideDenseFallsBackToTwoKernels) {
  vgpu::Device dev;
  PatternExecutor exec(dev, Backend::kFused);
  // n = 6000 exceeds 128 lanes x TL=40 = 5120: the §3.2 register limit.
  const auto X = la::dense_random(50, 6000, 78);
  const auto y = random_vector(6000, 14);
  const auto r = exec.xt_xy(X, y);
  EXPECT_NE(r.kernel.find("infeasible"), std::string::npos);
  EXPECT_GE(r.launches, 2u) << "falls back to two Level-2 kernels";
  expect_vectors_near(la::reference::pattern(1, X, {}, y, 0, {}), r.value);
  // Feasibility boundary itself.
  EXPECT_TRUE(kernels::dense_fused_feasible(dev.spec(), 5120));
  EXPECT_FALSE(kernels::dense_fused_feasible(dev.spec(), 5121));
}

TEST(Executor, SingleThreadCpuSlowerThanEightInModel) {
  vgpu::Device dev;
  PatternExecutor cpu8(dev, Backend::kCpu, 8);
  PatternExecutor cpu1(dev, Backend::kCpu, 1);
  const auto X = uniform_sparse(5000, 200, 0.05, 77);
  const auto y = random_vector(200, 13);
  // Bandwidth-bound sparse ops share memory bandwidth, but the flop-bound
  // component scales; at minimum 1-thread must not be faster.
  EXPECT_GE(cpu1.xt_xy(X, y).modeled_ms, cpu8.xt_xy(X, y).modeled_ms);
}

}  // namespace
}  // namespace fusedml::patterns
