// Tests for the compiler-side pieces: the CUDA source generator (Listing 2)
// and the expression-DAG fusion pass (the "transparently selects our fused
// GPU kernel" integration of §4.4).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

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

TEST(CudaCodegen, SparseVariants) {
  const auto shared = kernels::generate_sparse_fused_cuda(8, true);
  const auto global = kernels::generate_sparse_fused_cuda(8, false);
  EXPECT_NE(shared.find("__shared__"), std::string::npos);
  EXPECT_NE(shared.find("SD[NV + col_idx[i]]"), std::string::npos);
  EXPECT_EQ(global.find("extern __shared__"), std::string::npos);
  EXPECT_NE(global.find("atomicAdd(&w[col_idx[i]]"), std::string::npos);
  EXPECT_EQ(count_occurrences(shared, "{"), count_occurrences(shared, "}"));
  EXPECT_THROW(kernels::generate_sparse_fused_cuda(3, true), Error);
}

// --- Generated elementwise-chain kernels ------------------------------------------

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

TEST(EwiseCodegen, EmitsOneRegisterPerStepAndAGridStrideLoop) {
  const auto src =
      kernels::generate_ewise_chain_cuda(sigmoid_chain_program());
  // SSA registers s0..s2, no spilled intermediate arrays.
  EXPECT_NE(src.find("const double s0"), std::string::npos) << src;
  EXPECT_NE(src.find("const double s1"), std::string::npos);
  EXPECT_NE(src.find("const double s2"), std::string::npos);
  EXPECT_EQ(src.find("const double s3"), std::string::npos);
  // Grid-stride loop over n, one load per input stream, one store.
  EXPECT_NE(src.find("gridDim.x * blockDim.x"), std::string::npos);
  EXPECT_EQ(count_occurrences(src, "in0[i]"), 2);  // mul + final mul
  EXPECT_EQ(count_occurrences(src, "in1[i]"), 1);
  EXPECT_EQ(count_occurrences(src, "out[i]"), 1);
  // The map resolves to a device-function declaration, not an inline body.
  EXPECT_NE(src.find("map_sigmoid"), std::string::npos);
  EXPECT_EQ(count_occurrences(src, "{"), count_occurrences(src, "}"));
}

TEST(EwiseCodegen, RejectsInvalidPrograms) {
  kernels::EwiseProgram bad;
  bad.num_inputs = 1;
  bad.steps.push_back(binary_step(kernels::EwiseOp::kAdd, 0, 5));  // slot 5 undefined
  EXPECT_THROW(kernels::generate_ewise_chain_cuda(bad), Error);
}

// --- Kernel cache ----------------------------------------------------------------

TEST(KernelCache, GeneratesOnceThenHits) {
  kernels::KernelCache cache;
  const kernels::DenseKernelSpec spec{200, 32, 7};
  const auto& a = cache.dense_kernel(spec);
  const auto& b = cache.dense_kernel(spec);
  EXPECT_EQ(&a, &b) << "same specialization must return the cached source";
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(KernelCache, DistinguishesSpecializations) {
  kernels::KernelCache cache;
  cache.dense_kernel({200, 32, 7});
  cache.dense_kernel({200, 32, 8});                       // different TL
  cache.dense_kernel({200, 32, 7, false, true});          // no v
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.size(), 3u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(KernelCache, ExecutorCachesAcrossIterations) {
  vgpu::Device dev;
  kernels::OpRegistry reg(dev);
  const auto X = la::dense_random(500, 96, 905);
  const auto y = la::random_vector(96, 1);
  for (int it = 0; it < 5; ++it) {
    reg.pattern(kernels::Backend::kFused, 1, X, {}, y, 0, {});
  }
  EXPECT_EQ(reg.kernel_cache().stats().misses, 1u)
      << "one generation for the shape";
  EXPECT_EQ(reg.kernel_cache().stats().hits, 4u)
      << "iterations 2..5 reuse the generated kernel";
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
