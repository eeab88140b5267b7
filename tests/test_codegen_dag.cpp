// Tests for the compiler-side pieces: the CUDA source generator (Listing 2),
// repeat dispatches of generated kernels, and the expression-DAG fusion pass
// (the "transparently selects our fused GPU kernel" integration of §4.4).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "kernels/cuda_codegen.h"
#include "la/generate.h"
#include "la/vector_ops.h"
#include "kernels/op_registry.h"
#include "sysml/dag.h"
#include "sysml/fusion_planner.h"
#include "sysml/runtime.h"
#include "test_util.h"

namespace fusedml {
namespace {

using test::expect_vectors_near;

// --- CUDA source generator -----------------------------------------------------

int count_occurrences(const std::string& haystack, const std::string& needle) {
  int count = 0;
  for (usize pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + 1)) {
    ++count;
  }
  return count;
}

TEST(CudaCodegen, KernelNameMatchesListing2Convention) {
  // Listing 2's example: dense m x 32, VS = 16, TL = 2 -> mtmvm_32_16_2.
  kernels::DenseKernelSpec spec{32, 16, 2};
  EXPECT_EQ(kernels::cuda_kernel_name(spec), "mtmvm_32_16_2");
}

TEST(CudaCodegen, EmitsExactlyTlRegistersOfEachKind) {
  kernels::DenseKernelSpec spec{200, 32, 7};
  const auto src = kernels::generate_dense_fused_cuda(spec);
  for (int t = 1; t <= 7; ++t) {
    EXPECT_NE(src.find("l_X" + std::to_string(t)), std::string::npos) << t;
    EXPECT_NE(src.find("l_y" + std::to_string(t)), std::string::npos) << t;
    EXPECT_NE(src.find("l_w" + std::to_string(t)), std::string::npos) << t;
  }
  EXPECT_EQ(src.find("l_X8"), std::string::npos);
  EXPECT_EQ(src.find("l_w8"), std::string::npos);
}

TEST(CudaCodegen, NoRuntimeRegisterIndexing) {
  // The generator's whole purpose (§3.2): no l_X[i]-style indexed access.
  const auto src =
      kernels::generate_dense_fused_cuda({512, 128, 4});
  EXPECT_EQ(src.find("l_X["), std::string::npos);
  EXPECT_EQ(src.find("l_y["), std::string::npos);
  EXPECT_EQ(src.find("l_w["), std::string::npos);
}

TEST(CudaCodegen, UnrolledOffsetsUseVsStride) {
  const auto src = kernels::generate_dense_fused_cuda({32, 16, 2});
  // Listing 2: the second element sits VS=16 doubles further.
  EXPECT_NE(src.find("X[r + 16u]"), std::string::npos);
  EXPECT_NE(src.find("atomicAdd(wp + 16u, a * l_w2)"), std::string::npos);
}

TEST(CudaCodegen, StructurallyBalanced) {
  for (const auto spec :
       {kernels::DenseKernelSpec{28, 32, 1}, kernels::DenseKernelSpec{200, 32, 7},
        kernels::DenseKernelSpec{2048, 128, 16},
        kernels::DenseKernelSpec{64, 64, 1, false, false}}) {
    const auto src = kernels::generate_dense_fused_cuda(spec);
    EXPECT_EQ(count_occurrences(src, "{"), count_occurrences(src, "}"));
    EXPECT_NE(src.find("__global__"), std::string::npos);
    EXPECT_NE(src.find("atomicAdd"), std::string::npos);
  }
}

TEST(CudaCodegen, OptionalPiecesToggle) {
  kernels::DenseKernelSpec with{100, 32, 4, true, true};
  kernels::DenseKernelSpec without{100, 32, 4, false, false};
  const auto a = kernels::generate_dense_fused_cuda(with);
  const auto b = kernels::generate_dense_fused_cuda(without);
  EXPECT_NE(a.find("* v["), std::string::npos);
  EXPECT_NE(a.find("b * z[i]"), std::string::npos);
  EXPECT_EQ(b.find("v["), std::string::npos);
  EXPECT_EQ(b.find("z[i]"), std::string::npos);
}

TEST(CudaCodegen, RejectsInsufficientCoverage) {
  EXPECT_THROW(kernels::generate_dense_fused_cuda({1000, 32, 2}),
               Error);
}

// --- Elementwise-chain kernel names -------------------------------------------

real test_sigmoid(real t) { return real{1} / (real{1} + std::exp(-t)); }

kernels::EwiseStep binary_step(kernels::EwiseOp op, int a, int b) {
  kernels::EwiseStep s;
  s.op = op;
  s.a = a;
  s.b = b;
  return s;
}

kernels::EwiseProgram sigmoid_chain_program() {
  // 2in: mul(i0,i1); map[sigmoid](s0); mul(s1,i0) — the logreg residual.
  kernels::EwiseProgram p;
  p.num_inputs = 2;
  p.steps.push_back(binary_step(kernels::EwiseOp::kMul, 0, 1));
  kernels::EwiseStep map_step;
  map_step.op = kernels::EwiseOp::kMap;
  map_step.a = 2;
  map_step.map_fn = test_sigmoid;
  map_step.map_name = "sigmoid";
  p.steps.push_back(map_step);
  p.steps.push_back(binary_step(kernels::EwiseOp::kMul, 3, 0));
  return p;
}

TEST(EwiseCodegen, NamesEncodeTheStepSequence) {
  EXPECT_EQ(kernels::ewise_kernel_name(sigmoid_chain_program()),
            "ewise2_mul_map_sigmoid_mul");
}

// --- Repeat dispatches on one registry ----------------------------------------

void expect_same_dispatch(const kernels::KernelOutcome& want,
                          const kernels::KernelOutcome& got) {
  EXPECT_EQ(want.kernel, got.kernel);
  EXPECT_EQ(want.launches, got.launches);
  EXPECT_EQ(want.modeled_ms, got.modeled_ms);
  test::expect_same_counters(want.counters, got.counters);
  test::expect_same_bits(want.value, got.value);
}

// A registry keeps no per-shape state: the first dispatch of a shape on a
// fresh registry and every repeat on a long-lived one run the same kernel
// at the same cost and produce the same bits (§3.2: an iterative algorithm
// hits the same (n, VS, TL) shape every iteration).
TEST(RegistryRepeat, DensePatternAndEwiseChainKeepKernelCostAndBits) {
  const auto X = la::dense_random(500, 96, 905);
  const auto y = la::random_vector(96, 1);
  const auto v = la::random_vector(500, 2);
  const auto z = la::random_vector(96, 3);
  const auto a = la::random_vector(700, 4);
  const auto b = la::random_vector(700, 5);
  const std::vector<std::span<const real>> inputs{a, b};
  const auto program = sigmoid_chain_program();
  const auto pattern = [&](kernels::OpRegistry& reg) {
    return reg.pattern(kernels::Backend::kFused, 1.5, X, v, y, -0.5, z);
  };
  const auto chain = [&](kernels::OpRegistry& reg) {
    return reg.fused_ewise(kernels::Backend::kFused, program, inputs);
  };

  vgpu::Device fresh_dev;
  kernels::OpRegistry fresh(fresh_dev);
  const auto first_pattern = pattern(fresh);
  const auto first_chain = chain(fresh);
  EXPECT_EQ(first_pattern.kernel, "fused_pattern_dense (Alg. 3, codegen)");
  EXPECT_EQ(first_chain.kernel, kernels::ewise_kernel_name(program));
  EXPECT_GT(first_pattern.launches, 0u);
  EXPECT_GT(first_chain.launches, 0u);

  vgpu::Device dev;
  kernels::OpRegistry reg(dev);
  for (int it = 0; it < 5; ++it) {
    SCOPED_TRACE("iteration " + std::to_string(it));
    expect_same_dispatch(first_pattern, pattern(reg));
    expect_same_dispatch(first_chain, chain(reg));
  }
}

// --- DAG + the Equation-1-only planner ---------------------------------------

struct DagFixture : ::testing::Test {
  vgpu::Device dev;
  la::CsrMatrix X = la::uniform_sparse(800, 120, 0.05, 901);
  std::vector<real> y = la::random_vector(120, 1);
  std::vector<real> v = la::random_vector(800, 2);
  std::vector<real> z = la::random_vector(120, 3);
};

TEST_F(DagFixture, FusionCollapsesTheFullPattern) {
  sysml::Runtime rt(dev, {});
  const auto Xid = rt.add_sparse(X, "X");
  auto root = sysml::pattern_expression(
      0.5, sysml::input_matrix(Xid), sysml::input_vector(rt.add_vector(v, "v")),
      sysml::input_vector(rt.add_vector(y, "y")), 2.0,
      sysml::input_vector(rt.add_vector(z, "z")));

  const auto plan = sysml::plan_fusion(rt, root, sysml::equation1_only());
  EXPECT_EQ(plan.groups.size(), 1u);
  EXPECT_EQ(plan.root->kind, sysml::OpKind::kFusedPattern);
  EXPECT_DOUBLE_EQ(plan.root->scalar, 0.5);
  EXPECT_DOUBLE_EQ(plan.root->scalar2, 2.0);
  EXPECT_LT(sysml::count_nodes(plan.root), sysml::count_nodes(root));
}

TEST_F(DagFixture, AllDegenerationsFuse) {
  sysml::Runtime rt(dev, {});
  const auto Xn = sysml::input_matrix(rt.add_sparse(X, "X"));
  const auto yn = sysml::input_vector(rt.add_vector(y, "y"));
  const auto vn = sysml::input_vector(rt.add_vector(v, "v"));
  const auto zn = sysml::input_vector(rt.add_vector(z, "z"));

  // X^T(Xy), X^T(v⊙(Xy)), X^T(Xy)+bz, a*X^T(Xy).
  for (const auto& root :
       {sysml::pattern_expression(1, Xn, nullptr, yn, 0, nullptr),
        sysml::pattern_expression(1, Xn, vn, yn, 0, nullptr),
        sysml::pattern_expression(1, Xn, nullptr, yn, 3, zn),
        sysml::pattern_expression(2, Xn, nullptr, yn, 0, nullptr)}) {
    const auto plan = sysml::plan_fusion(rt, root, sysml::equation1_only());
    EXPECT_EQ(plan.groups.size(), 1u);
    EXPECT_EQ(plan.root->kind, sysml::OpKind::kFusedPattern);
  }
}

TEST_F(DagFixture, DifferentMatricesDoNotFuse) {
  sysml::Runtime rt(dev, {});
  const auto X2 = la::uniform_sparse(120, 800, 0.05, 902);  // X^T shape
  const auto Xa = sysml::input_matrix(rt.add_sparse(X, "X"));
  const auto Xb = sysml::input_matrix(rt.add_sparse(X2, "X2"));
  const auto yn = sysml::input_vector(rt.add_vector(y, "y"));
  // mvt(X2, mv(X, y)): valid algebra but NOT the reuse pattern.
  const auto root = sysml::mvt(Xb, sysml::mv(Xa, yn));
  const auto plan = sysml::plan_fusion(rt, root, sysml::equation1_only());
  EXPECT_EQ(plan.groups.size(), 0u);
  EXPECT_NE(plan.root->kind, sysml::OpKind::kFusedPattern);
}

TEST_F(DagFixture, FusedAndUnfusedExecutionsAgreeWithOracle) {
  const auto expect = la::reference::pattern(0.5, X, v, y, 2.0, z);
  for (bool fuse : {false, true}) {
    sysml::Runtime rt(dev, {});
    auto root = sysml::pattern_expression(
        0.5, sysml::input_matrix(rt.add_sparse(X, "X")),
        sysml::input_vector(rt.add_vector(v, "v")),
        sysml::input_vector(rt.add_vector(y, "y")), 2.0,
        sysml::input_vector(rt.add_vector(z, "z")));
    if (fuse) {
      root = sysml::plan_fusion(rt, root, sysml::equation1_only()).root;
    }
    const auto out = sysml::execute(rt, root);
    expect_vectors_near(expect, rt.read_vector(out), 1e-8);
  }
}

TEST_F(DagFixture, FusionReducesOpsAndTime) {
  const auto big = la::uniform_sparse(40000, 500, 0.02, 903);
  const auto yy = la::random_vector(500, 4);
  const auto vv = la::random_vector(40000, 5);
  double fused_ms = 0, unfused_ms = 0;
  std::uint64_t fused_ops = 0, unfused_ops = 0;
  for (bool fuse : {false, true}) {
    sysml::Runtime rt(dev, {});
    auto root = sysml::pattern_expression(
        1, sysml::input_matrix(rt.add_sparse(big, "X")),
        sysml::input_vector(rt.add_vector(vv, "v")),
        sysml::input_vector(rt.add_vector(yy, "y")), 0, nullptr);
    if (fuse) {
      root = sysml::plan_fusion(rt, root, sysml::equation1_only()).root;
    }
    sysml::execute(rt, root);
    const auto& s = rt.stats();
    (fuse ? fused_ms : unfused_ms) = s.total_ms();
    (fuse ? fused_ops : unfused_ops) = s.gpu_ops + s.cpu_ops;
  }
  EXPECT_LT(fused_ops, unfused_ops);
  EXPECT_LT(fused_ms, unfused_ms);
}

TEST_F(DagFixture, NestedPatternInsideLargerExpressionFuses) {
  sysml::Runtime rt(dev, {});
  const auto Xn = sysml::input_matrix(rt.add_sparse(X, "X"));
  const auto yn = sysml::input_vector(rt.add_vector(y, "y"));
  const auto zn = sysml::input_vector(rt.add_vector(z, "z"));
  // 3 * (X^T(Xy)) + z as scale/add around a fusable core — core fuses,
  // the surrounding ops stay.
  const auto root = sysml::add(
      sysml::scale(3.0, sysml::mvt(Xn, sysml::mv(Xn, yn))),
      zn);
  const auto plan = sysml::plan_fusion(rt, root, sysml::equation1_only());
  EXPECT_EQ(plan.groups.size(), 1u);
  // The whole expression IS the pattern with beta=1: root collapses fully.
  EXPECT_EQ(plan.root->kind, sysml::OpKind::kFusedPattern);
  EXPECT_DOUBLE_EQ(plan.root->scalar, 3.0);
  EXPECT_DOUBLE_EQ(plan.root->scalar2, 1.0);

  const auto out = sysml::execute(rt, plan.root);
  auto expect = la::reference::pattern(3.0, X, {}, y, 0, {});
  la::axpy(1.0, z, expect);
  expect_vectors_near(expect, rt.read_vector(out), 1e-8);
}

TEST_F(DagFixture, SharedIntermediateBlocksPatternFusion) {
  // m = X*y feeds the MvT (pattern interior) AND the epilogue: fusing the
  // pattern would recompute m inside the kernel while also reading it as z.
  // The materialization-point analysis must leave the match unfused — and
  // execution must stay correct either way.
  sysml::Runtime rt(dev, {});
  const auto Xs = la::uniform_sparse(120, 120, 0.05, 907);
  const auto ys = la::random_vector(120, 6);
  const auto Xn = sysml::input_matrix(rt.add_sparse(Xs, "Xs"));
  const auto yn = sysml::input_vector(rt.add_vector(ys, "ys"));
  const auto m = sysml::mv(Xn, yn);
  const auto root = sysml::add(sysml::mvt(Xn, m), sysml::scale(2.0, m));

  const auto plan = sysml::plan_fusion(rt, root, sysml::equation1_only());
  EXPECT_EQ(plan.groups.size(), 0u);
  EXPECT_GE(plan.rejected_multi_consumer, 1);
  EXPECT_NE(plan.root->kind, sysml::OpKind::kFusedPattern);

  const auto out = sysml::execute(rt, plan.root);
  auto want = la::reference::pattern(1.0, Xs, {}, ys, 0, {});
  la::axpy(2.0, la::reference::spmv(Xs, ys), want);
  expect_vectors_near(want, rt.read_vector(out), 1e-8);
}

TEST_F(DagFixture, IndependentCopiesOfThePatternStillFuse) {
  // The same STRUCTURE duplicated with fresh nodes shares nothing, so both
  // copies fuse — the analysis keys on node identity, not shape.
  sysml::Runtime rt(dev, {});
  const auto Xn = sysml::input_matrix(rt.add_sparse(X, "X"));
  const auto yn = sysml::input_vector(rt.add_vector(y, "y"));
  const auto root = sysml::add(sysml::mvt(Xn, sysml::mv(Xn, yn)),
                               sysml::mvt(Xn, sysml::mv(Xn, yn)));
  const auto plan = sysml::plan_fusion(rt, root, sysml::equation1_only());
  EXPECT_EQ(plan.groups.size(), 2u);
  EXPECT_EQ(plan.rejected_multi_consumer, 0);
}

TEST(Dag, CountNodesHandlesSharing) {
  auto leaf = sysml::input_vector(1);
  auto shared = sysml::scale(2.0, leaf);
  auto root = sysml::add(shared, shared);  // diamond
  EXPECT_EQ(sysml::count_nodes(root), 3);
}

}  // namespace
}  // namespace fusedml
