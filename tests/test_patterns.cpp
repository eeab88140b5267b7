// Tests for single-op dispatch of the paper's patterns through the operator
// registry: every backend produces identical values under
// execute_resilient, the runtime's trace names each Table-1 instantiation
// it dispatched, and the fused backend wins on modeled time (the paper's
// core claim).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "common/error.h"
#include "kernels/fused_dense.h"
#include "kernels/op_registry.h"
#include "la/generate.h"
#include "la/vector_ops.h"
#include "ml/script_library.h"
#include "sysml/runtime.h"
#include "test_util.h"

namespace fusedml::kernels {
namespace {

using la::random_vector;
using la::uniform_sparse;
using test::expect_vectors_near;

/// One resilient dispatch of `attempt`, starting on `backend`.
template <typename Attempt>
KernelOutcome run(OpRegistry& reg, Backend backend, Attempt&& attempt) {
  return reg.execute_resilient(backend, RetryPolicy{}, attempt);
}

/// The trace name the runtime gives one op_pattern call with optional v/z.
std::string traced_form(bool with_v, bool with_z) {
  vgpu::Device dev;
  sysml::Runtime rt(dev, {.enable_gpu = false});
  const auto X = rt.add_sparse(uniform_sparse(60, 20, 0.2, 70), "X");
  const auto y = rt.add_vector(random_vector(20, 1), "y");
  const auto v = with_v ? rt.add_vector(random_vector(60, 2), "v") : 0;
  const auto z = with_z ? rt.add_vector(random_vector(20, 3), "z") : 0;
  rt.op_pattern(1, X, v, y, with_z ? 0.5 : 0.0, z);
  return rt.trace().back().op;
}

TEST(Pattern, Classification) {
  EXPECT_EQ(traced_form(false, false), "pattern");        // X^T*(X*y)
  EXPECT_EQ(traced_form(true, false), "pattern[v]");      // X^T*(v.(X*y))
  EXPECT_EQ(traced_form(false, true), "pattern[bz]");     // X^T*(X*y)+b*z
  EXPECT_EQ(traced_form(true, true), "pattern[v,bz]");    // the full form
  // a*X^T*y is its own op.
  vgpu::Device dev;
  sysml::Runtime rt(dev, {.enable_gpu = false});
  const auto X = rt.add_sparse(uniform_sparse(60, 20, 0.2, 70), "X");
  rt.op_transposed_product(X, rt.add_vector(random_vector(60, 4), "y"), 2);
  EXPECT_EQ(rt.trace().back().op, "transposed_product");
}

TEST(Pattern, Table1MatchesPaper) {
  // The paper's Table 1 marks for LR, LogReg, SVM and HITS (GLM's differ:
  // its script folds the ridge into the v-weighted product, so it issues
  // the full form instead of X^T*(v.(X*y))).
  const auto X = uniform_sparse(400, 30, 0.2, 79);
  const auto y_reg = la::regression_labels(X, 79, 0.05);
  const auto y_cls = la::classification_labels(X, 79, 0.1);
  struct Row {
    ml::Algorithm algorithm;
    std::span<const real> labels;
    std::set<std::string> paper;
  };
  const Row rows[] = {
      {ml::Algorithm::kLrCg, y_reg,
       {"transposed_product", "pattern", "pattern[bz]"}},
      {ml::Algorithm::kLogregGd, y_cls,
       {"transposed_product", "pattern[v]", "pattern[v,bz]"}},
      {ml::Algorithm::kSvm, y_cls,
       {"transposed_product", "pattern", "pattern[bz]"}},
      {ml::Algorithm::kHits, {}, {"transposed_product", "pattern"}},
  };
  for (const Row& row : rows) {
    vgpu::Device dev;
    sysml::Runtime rt(dev);
    ml::find_script(row.algorithm, false, sysml::PlanMode::kHardcodedPass)
        ->run_sparse(rt, X, row.labels, 4);
    int equation1_ops = 0;
    for (const auto& entry : rt.trace()) {
      if (!entry.pattern) continue;
      ++equation1_ops;
      EXPECT_EQ(row.paper.count(entry.op), 1u)
          << ml::to_string(row.algorithm) << " dispatched " << entry.op;
    }
    EXPECT_GT(equation1_ops, 0) << ml::to_string(row.algorithm);
  }
}

TEST(Pattern, ToStringDistinct) {
  const std::set<std::string> forms = {
      traced_form(false, false), traced_form(true, false),
      traced_form(false, true), traced_form(true, true)};
  EXPECT_EQ(forms.size(), 4u);
  std::set<std::string> backends;
  for (const Backend b : {Backend::kFused, Backend::kCusparse,
                          Backend::kBidmatGpu, Backend::kCpu}) {
    EXPECT_FALSE(to_string(b).empty());
    backends.insert(to_string(b));
  }
  EXPECT_EQ(backends.size(), 4u);
}

class ExecutorBackends : public ::testing::TestWithParam<Backend> {
 protected:
  vgpu::Device dev;
  OpRegistry reg{dev};
};

TEST_P(ExecutorBackends, SparsePatternMatchesReference) {
  const auto X = uniform_sparse(400, 150, 0.05, 71);
  const auto y = random_vector(150, 1);
  const auto v = random_vector(400, 2);
  const auto z = random_vector(150, 3);
  const auto got = run(reg, GetParam(), [&](Backend b) {
    return reg.pattern(b, 1.5, X, v, y, -0.5, z);
  });
  expect_vectors_near(la::reference::pattern(1.5, X, v, y, -0.5, z),
                      got.value);
  EXPECT_EQ(got.backend_used, GetParam());
  EXPECT_FALSE(got.kernel.empty());
}

TEST_P(ExecutorBackends, SparseTransposedProductMatches) {
  const auto X = uniform_sparse(300, 100, 0.05, 72);
  const auto y = random_vector(300, 4);
  auto expect = la::reference::spmv_transposed(X, y);
  la::scal(-2.0, expect);
  expect_vectors_near(expect, run(reg, GetParam(), [&](Backend b) {
                                return reg.transposed_product(b, X, y, -2.0);
                              }).value);
}

TEST_P(ExecutorBackends, DensePatternMatches) {
  const auto X = la::dense_random(200, 96, 73);
  const auto y = random_vector(96, 5);
  expect_vectors_near(la::reference::pattern(1, X, {}, y, 0, {}),
                      run(reg, GetParam(), [&](Backend b) {
                        return reg.pattern(b, 1, X, {}, y, 0, {});
                      }).value);
}

TEST_P(ExecutorBackends, ProductAndBlas1Match) {
  const auto X = uniform_sparse(120, 80, 0.1, 74);
  const auto y = random_vector(80, 6);
  expect_vectors_near(la::reference::spmv(X, y),
                      run(reg, GetParam(), [&](Backend b) {
                        return reg.product(b, X, y);
                      }).value);

  auto a = random_vector(500, 7);
  auto c = random_vector(500, 8);
  EXPECT_NEAR(run(reg, GetParam(),
                  [&](Backend b) { return reg.dot(b, a, c); })
                  .value[0],
              la::dot(a, c), 1e-9);
  EXPECT_NEAR(
      run(reg, GetParam(), [&](Backend b) { return reg.nrm2(b, a); })
          .value[0],
      la::nrm2(a), 1e-9);
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
  // The runtime's trace is the usage record: one entry per dispatched op,
  // named by its Table-1 instantiation.
  vgpu::Device dev;
  sysml::Runtime rt(dev);
  const auto X = rt.add_sparse(uniform_sparse(100, 50, 0.1, 75), "X");
  const auto y = rt.add_vector(random_vector(50, 9), "y");
  const auto ym = rt.add_vector(random_vector(100, 10), "ym");
  const auto v = rt.add_vector(random_vector(100, 11), "v");
  rt.op_pattern(1, X, 0, y, 0, 0);
  rt.op_pattern(1, X, 0, y, 0, 0);
  rt.op_pattern(1, X, v, y, 0, 0);
  rt.op_transposed_product(X, ym);
  std::map<std::string, int> usage;
  for (const auto& entry : rt.trace()) ++usage[entry.op];
  EXPECT_EQ(usage["pattern"], 2);
  EXPECT_EQ(usage["pattern[v]"], 1);
  EXPECT_EQ(usage["transposed_product"], 1);
  EXPECT_EQ(usage.size(), 3u);
}

TEST(Executor, FusedBeatsBaselinesOnModeledTime) {
  vgpu::Device dev;
  OpRegistry reg(dev);
  const auto X = uniform_sparse(20000, 1000, 0.01, 76);
  const auto y = random_vector(1000, 12);
  const auto xt_xy = [&](Backend backend) {
    return run(reg, backend, [&](Backend b) {
             return reg.pattern(b, 1, X, {}, y, 0, {});
           }).modeled_ms;
  };
  const double t_fused = xt_xy(Backend::kFused);
  const double t_cusparse = xt_xy(Backend::kCusparse);
  const double t_bidmat = xt_xy(Backend::kBidmatGpu);
  // The paper's ordering: fused < BIDMat-GPU < cuSPARSE (Fig. 3).
  EXPECT_LT(t_fused, t_bidmat);
  EXPECT_LT(t_bidmat, t_cusparse);
}

TEST(Executor, WideDenseFallsBackToTwoKernels) {
  vgpu::Device dev;
  OpRegistry reg(dev);
  // n = 6000 exceeds 128 lanes x TL=40 = 5120: the §3.2 register limit.
  const auto X = la::dense_random(50, 6000, 78);
  const auto y = random_vector(6000, 14);
  const auto r = run(reg, Backend::kFused, [&](Backend b) {
    return reg.pattern(b, 1, X, {}, y, 0, {});
  });
  EXPECT_NE(r.kernel.find("infeasible"), std::string::npos);
  EXPECT_GE(r.launches, 2u) << "falls back to two Level-2 kernels";
  expect_vectors_near(la::reference::pattern(1, X, {}, y, 0, {}), r.value);
  // Feasibility boundary itself.
  EXPECT_TRUE(dense_fused_feasible(dev.spec(), 5120));
  EXPECT_FALSE(dense_fused_feasible(dev.spec(), 5121));
}

TEST(Executor, BaselineDispatchNamesAndLaunches) {
  // Each baseline backend on each storage names the composition it ran and
  // launches one kernel per primitive (ABFT is off, so no verify launches).
  vgpu::Device dev;
  OpRegistry reg(dev);
  const auto Xs = uniform_sparse(300, 100, 0.05, 79);
  const auto Xd = la::dense_random(200, 96, 80);
  // n = 5200 is over the fused dense kernel's 5120-column limit.
  const auto Xwide = la::dense_random(20, 5200, 81);
  enum class Op { kPattern, kTransposed, kScaledTransposed };
  struct Row {
    Backend backend;
    la::MatrixRef X;
    Op op;
    std::string kernel;
    std::uint64_t launches;
  };
  const Row rows[] = {
      {Backend::kCusparse, Xs, Op::kPattern,
       "csrmv + blas1 + csr2csc + csrmv", 8},
      {Backend::kCusparse, Xs, Op::kTransposed, "csr2csc + csrmv", 4},
      {Backend::kCusparse, Xs, Op::kScaledTransposed, "csr2csc + csrmv", 5},
      {Backend::kBidmatGpu, Xs, Op::kPattern,
       "csrmv + blas1 + atomic-scatter", 5},
      {Backend::kBidmatGpu, Xs, Op::kTransposed, "atomic-scatter spmv_t", 1},
      {Backend::kBidmatGpu, Xs, Op::kScaledTransposed,
       "atomic-scatter spmv_t", 2},
      {Backend::kCusparse, Xd, Op::kPattern,
       "gemv + blas1 + gemv_t (cuBLAS tiles)", 5},
      {Backend::kCusparse, Xd, Op::kTransposed, "gemv_t", 1},
      {Backend::kCusparse, Xd, Op::kScaledTransposed, "gemv_t", 2},
      {Backend::kBidmatGpu, Xd, Op::kPattern,
       "gemv + blas1 + gemv_t (padded tiles)", 5},
      {Backend::kBidmatGpu, Xd, Op::kTransposed, "gemv_t", 1},
      {Backend::kBidmatGpu, Xd, Op::kScaledTransposed, "gemv_t", 2},
      {Backend::kFused, Xwide, Op::kPattern,
       "gemv + gemv_t (fused infeasible: n too large, §3.2)", 5},
  };
  for (const Row& row : rows) {
    const auto m = static_cast<usize>(row.X.rows());
    const auto n = static_cast<usize>(row.X.cols());
    const auto y = random_vector(n, 15);
    const auto v = random_vector(m, 16);
    const auto z = random_vector(n, 17);
    const auto p = random_vector(m, 18);
    const KernelOutcome got =
        row.op == Op::kPattern
            ? reg.pattern(row.backend, 1.5, row.X, v, y, -0.5, z)
            : reg.transposed_product(row.backend, row.X, p,
                                     row.op == Op::kTransposed ? 1.0 : 2.0);
    SCOPED_TRACE(to_string(row.backend) + " " + row.kernel);
    EXPECT_EQ(got.kernel, row.kernel);
    EXPECT_EQ(got.launches, row.launches);
  }
}

TEST(Executor, SingleThreadCpuSlowerThanEightInModel) {
  const CpuBackend cpu8(vgpu::paper_host_cpu(), 8);
  const CpuBackend cpu1(vgpu::paper_host_cpu(), 1);
  const auto X = uniform_sparse(5000, 200, 0.05, 77);
  const auto y = random_vector(200, 13);
  // Bandwidth-bound sparse ops share memory bandwidth, but the flop-bound
  // component scales; at minimum 1-thread must not be faster.
  EXPECT_GE(cpu1.pattern(1, X, {}, y, 0, {}).modeled_ms,
            cpu8.pattern(1, X, {}, y, 0, {}).modeled_ms);
}

}  // namespace
}  // namespace fusedml::kernels
