// Property-based suites: randomized fuzzing of every kernel against the
// CPU oracles across seeds/shapes (TEST_P sweeps), algebraic identities of
// the pattern, coalescing-model invariants, occupancy monotonicity, and
// cost-model sanity under random counter loads.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "kernels/baselines.h"
#include "kernels/fused_dense.h"
#include "kernels/fused_sparse.h"
#include "la/convert.h"
#include "la/generate.h"
#include "la/vector_ops.h"
#include "ml/script_library.h"
#include "sysml/dag.h"
#include "sysml/fusion_planner.h"
#include "sysml/runtime.h"
#include "test_util.h"
#include "tuner/launch_params.h"
#include "vgpu/coalescing.h"
#include "vgpu/cost_model.h"

namespace fusedml {
namespace {

using kernels::fused_pattern_dense;
using kernels::fused_pattern_sparse;
using la::random_vector;
using la::uniform_sparse;
using test::expect_vectors_near;

// --- Randomized kernel fuzzing -------------------------------------------------

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, FusedSparseAgainstOracleOnRandomShapes) {
  Rng rng(GetParam());
  vgpu::Device dev;
  for (int trial = 0; trial < 4; ++trial) {
    const auto m = static_cast<index_t>(1 + rng.uniform_index(800));
    const auto n = static_cast<index_t>(1 + rng.uniform_index(600));
    const double sparsity = rng.uniform(0.0, 0.4);
    const auto X = uniform_sparse(m, n, sparsity, rng.next_u64());
    const auto y = random_vector(static_cast<usize>(n), rng.next_u64());
    const bool with_v = rng.uniform() < 0.5;
    const bool with_z = rng.uniform() < 0.5;
    const auto v = with_v ? random_vector(static_cast<usize>(m),
                                          rng.next_u64())
                          : std::vector<real>{};
    const auto z = with_z ? random_vector(static_cast<usize>(n),
                                          rng.next_u64())
                          : std::vector<real>{};
    const real alpha = rng.uniform(-3.0, 3.0);
    const real beta = with_z ? rng.uniform(-3.0, 3.0) : real{0};

    const auto got = fused_pattern_sparse(dev, alpha, X, v, y, beta, z);
    expect_vectors_near(la::reference::pattern(alpha, X, v, y, beta, z),
                        got.value, 1e-8);
  }
}

TEST_P(FuzzSeeds, FusedDenseAgainstOracleOnRandomShapes) {
  Rng rng(GetParam());
  vgpu::Device dev;
  for (int trial = 0; trial < 3; ++trial) {
    const auto m = static_cast<index_t>(1 + rng.uniform_index(400));
    const auto n = static_cast<index_t>(1 + rng.uniform_index(700));
    const auto X = la::dense_random(m, n, rng.next_u64());
    const auto y = random_vector(static_cast<usize>(n), rng.next_u64());
    const auto v = random_vector(static_cast<usize>(m), rng.next_u64());
    const real alpha = rng.uniform(-2.0, 2.0);
    const auto got = fused_pattern_dense(dev, alpha, X, v, y, 0, {});
    expect_vectors_near(la::reference::pattern(alpha, X, v, y, 0, {}),
                        got.value, 1e-8);
  }
}

TEST_P(FuzzSeeds, TransposeInvariants) {
  Rng rng(GetParam() ^ 0x1111);
  const auto m = static_cast<index_t>(1 + rng.uniform_index(300));
  const auto n = static_cast<index_t>(1 + rng.uniform_index(300));
  const auto X = uniform_sparse(m, n, rng.uniform(0.0, 0.3), rng.next_u64());
  const auto Xt = la::transpose(X);
  EXPECT_EQ(la::transpose(Xt), X);  // involution
  // (X^T y)_j computed both ways.
  const auto y = random_vector(static_cast<usize>(m), rng.next_u64());
  expect_vectors_near(la::reference::spmv(Xt, y),
                      la::reference::spmv_transposed(X, y));
}

TEST_P(FuzzSeeds, PatternLinearityInAlphaAndZ) {
  Rng rng(GetParam() ^ 0x2222);
  vgpu::Device dev;
  const auto X = uniform_sparse(200, 80, 0.15, rng.next_u64());
  const auto y = random_vector(80, rng.next_u64());
  const auto z = random_vector(80, rng.next_u64());
  // pattern(a) == a * pattern(1) when beta = 0.
  const real a = rng.uniform(0.5, 4.0);
  auto p1 = fused_pattern_sparse(dev, 1, X, {}, y, 0, {}).value;
  la::scal(a, p1);
  const auto pa = fused_pattern_sparse(dev, a, X, {}, y, 0, {}).value;
  expect_vectors_near(p1, pa, 1e-9);
  // pattern(alpha, beta, z) == pattern(alpha, 0) + beta*z.
  const real b = rng.uniform(-2.0, 2.0);
  auto with_z = fused_pattern_sparse(dev, a, X, {}, y, b, z).value;
  auto base = fused_pattern_sparse(dev, a, X, {}, y, 0, {}).value;
  la::axpy(b, z, base);
  expect_vectors_near(base, with_z, 1e-9);
}

// --- Fusion planner vs the unfused interpreter ---------------------------------

TEST_P(FuzzSeeds, PlannedElementwiseDagsBitExactVsUnfused) {
  // Random straight-line/shared elementwise DAGs: whatever regions the
  // planner collapses into generated kernels, the planned DAG must produce
  // the SAME BITS as operator-at-a-time interpretation (same per-element
  // operation order), and never more modeled launches.
  Rng rng(GetParam());
  vgpu::Device dev;
  for (int trial = 0; trial < 5; ++trial) {
    sysml::Runtime rt(dev, {.enable_gpu = true, .gpu_cost_bias = 1e-4});
    const usize n = 32 + rng.uniform_index(300);
    std::vector<sysml::NodePtr> pool;
    for (int i = 0; i < 3; ++i) {
      pool.push_back(sysml::input_vector(
          rt.add_vector(random_vector(n, rng.next_u64()), "in")));
    }
    const auto pick = [&] { return pool[rng.uniform_index(pool.size())]; };
    const int ops = 3 + static_cast<int>(rng.uniform_index(8));
    for (int i = 0; i < ops; ++i) {
      switch (rng.uniform_index(4)) {
        case 0:
          pool.push_back(sysml::scale(rng.uniform(-2.0, 2.0), pick()));
          break;
        case 1: pool.push_back(sysml::add(pick(), pick())); break;
        case 2: pool.push_back(sysml::ewise_mul(pick(), pick())); break;
        default:
          pool.push_back(sysml::map(pick(), ml::stable_sigmoid, "sigmoid"));
          break;
      }
    }
    // Random second operand keeps shared intermediates in the mix.
    const sysml::NodePtr root = sysml::add(pool.back(), pick());

    const auto plan = sysml::plan_fusion(rt, root);
    const auto a = rt.read_vector(sysml::execute(rt, root));
    const std::vector<real> want(a.begin(), a.end());
    const auto b = rt.read_vector(sysml::execute(rt, plan.root));
    EXPECT_EQ(want, std::vector<real>(b.begin(), b.end()))
        << "trial " << trial << ": planned DAG diverged";
    EXPECT_LE(plan.launches_planned, plan.launches_unfused);
    EXPECT_LE(plan.modeled_planned_ms, plan.modeled_unfused_ms + 1e-12);
  }
}

TEST_P(FuzzSeeds, PlannedPatternDagsMatchOracle) {
  // Random Equation-1 shapes (degenerations included): the planner's fused
  // node must agree with the reference oracle to the pattern kernels'
  // reassociation tolerance, and strictly reduce launches.
  Rng rng(GetParam());
  vgpu::Device dev;
  for (int trial = 0; trial < 3; ++trial) {
    sysml::Runtime rt(dev, {.enable_gpu = true, .gpu_cost_bias = 1e-4});
    const auto m = static_cast<index_t>(50 + rng.uniform_index(500));
    const auto cols = static_cast<index_t>(20 + rng.uniform_index(200));
    const auto X = uniform_sparse(m, cols, 0.05, rng.next_u64());
    const auto y = random_vector(static_cast<usize>(cols), rng.next_u64());
    const bool with_v = rng.uniform() < 0.5;
    const bool with_z = rng.uniform() < 0.5;
    const auto v = with_v ? random_vector(static_cast<usize>(m),
                                          rng.next_u64())
                          : std::vector<real>{};
    const auto z = with_z ? random_vector(static_cast<usize>(cols),
                                          rng.next_u64())
                          : std::vector<real>{};
    const real alpha = rng.uniform(-3.0, 3.0);
    const real beta = with_z ? rng.uniform(-3.0, 3.0) : real{0};

    const auto root = sysml::pattern_expression(
        alpha, sysml::input_matrix(rt.add_sparse(X, "X")),
        with_v ? sysml::input_vector(rt.add_vector(v, "v")) : nullptr,
        sysml::input_vector(rt.add_vector(y, "y")), beta,
        with_z ? sysml::input_vector(rt.add_vector(z, "z")) : nullptr);

    const auto plan = sysml::plan_fusion(rt, root);
    EXPECT_LT(plan.launches_planned, plan.launches_unfused);
    const auto got = rt.read_vector(sysml::execute(rt, plan.root));
    expect_vectors_near(la::reference::pattern(alpha, X, v, y, beta, z), got,
                        1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

// --- Coalescing-model invariants -------------------------------------------------

TEST(CoalescingProperties, GatherBoundedByLanesAndSpan) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const auto lanes = static_cast<usize>(1 + rng.uniform_index(32));
    std::vector<std::uint64_t> addrs(lanes);
    for (auto& a : addrs) a = rng.uniform_index(1 << 20);
    const auto tx = vgpu::gather_transactions(addrs);
    EXPECT_GE(tx, 1u);
    EXPECT_LE(tx, lanes);
    // Contiguous access is never worse than the same addresses gathered.
    const auto contiguous =
        vgpu::contiguous_transactions(addrs[0], static_cast<int>(lanes), 8);
    EXPECT_LE(contiguous, lanes + 1);
  }
}

TEST(CoalescingProperties, ContiguousMonotoneInLanes) {
  for (int lanes = 1; lanes < 32; ++lanes) {
    EXPECT_LE(vgpu::contiguous_transactions(24, lanes, 8),
              vgpu::contiguous_transactions(24, lanes + 1, 8));
  }
}

// --- Occupancy monotonicity ---------------------------------------------------------

TEST(OccupancyProperties, MoreRegistersNeverMoreBlocks) {
  const auto spec = vgpu::gtx_titan();
  for (int bs : {64, 128, 256, 512}) {
    int prev = 1 << 30;
    for (int regs = 16; regs <= 255; regs += 16) {
      const auto occ = vgpu::compute_occupancy(spec, bs, {regs, 0});
      EXPECT_LE(occ.blocks_per_sm, prev) << "bs=" << bs << " regs=" << regs;
      prev = occ.blocks_per_sm;
    }
  }
}

TEST(OccupancyProperties, MoreSmemNeverMoreBlocks) {
  const auto spec = vgpu::gtx_titan();
  int prev = 1 << 30;
  for (usize smem = 0; smem <= spec.smem_per_sm_bytes; smem += 4096) {
    const auto occ = vgpu::compute_occupancy(spec, 128, {32, smem});
    EXPECT_LE(occ.blocks_per_sm, prev);
    prev = occ.blocks_per_sm;
  }
}

TEST(OccupancyProperties, ActiveWarpsNeverExceedDeviceLimit) {
  const auto spec = vgpu::gtx_titan();
  Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    const int bs = 32 * static_cast<int>(1 + rng.uniform_index(32));
    const int regs = static_cast<int>(16 + rng.uniform_index(240));
    const auto smem = static_cast<usize>(rng.uniform_index(64 * 1024));
    const auto occ = vgpu::compute_occupancy(spec, bs, {regs, smem});
    EXPECT_LE(occ.active_warps_per_sm, spec.max_warps_per_sm());
    EXPECT_LE(occ.active_threads_per_sm, spec.max_threads_per_sm);
  }
}

// --- Cost-model sanity -----------------------------------------------------------------

TEST(CostModelProperties, TimeMonotoneInEveryCounter) {
  const vgpu::CostModel model(vgpu::gtx_titan());
  vgpu::OccupancyResult occ;
  occ.occupancy = 1.0;
  Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    vgpu::MemCounters c;
    c.gld_transactions = rng.uniform_index(1 << 20);
    c.gst_transactions = rng.uniform_index(1 << 18);
    c.l2_hit_transactions = rng.uniform_index(1 << 19);
    c.tex_transactions = rng.uniform_index(1 << 18);
    c.atomic_global_ops = rng.uniform_index(1 << 18);
    c.atomic_global_targets = 1 + rng.uniform_index(1 << 12);
    c.flops = rng.uniform_index(1 << 22);
    const double base = model.kernel_time(c, occ).total_ms;

    auto bumped = c;
    bumped.gld_transactions += 1 << 16;
    EXPECT_GE(model.kernel_time(bumped, occ).total_ms, base);
    bumped = c;
    bumped.atomic_global_ops += 1 << 16;
    EXPECT_GE(model.kernel_time(bumped, occ).total_ms, base);
  }
}

TEST(CostModelProperties, TransferLinearInBytes) {
  const vgpu::CostModel model(vgpu::gtx_titan());
  const double one = model.transfer_ms(1 << 20);
  const double ten = model.transfer_ms(10 << 20);
  // Latency makes it slightly sublinear in the ratio, never superlinear.
  EXPECT_LT(ten, 10.0 * one + 1e-12);
  EXPECT_GT(ten, 8.0 * one);
}

// --- Tuner properties ----------------------------------------------------------------------

TEST(TunerProperties, SparseParamsValidAcrossRandomMatrices) {
  Rng rng(17);
  for (const auto& spec : {vgpu::gtx_titan(), vgpu::small_kepler()}) {
    for (int trial = 0; trial < 60; ++trial) {
      const auto m = static_cast<index_t>(1 + rng.uniform_index(1 << 20));
      const auto n = static_cast<index_t>(1 + rng.uniform_index(1 << 16));
      const double mu = rng.uniform(0.1, 200.0);
      const auto p = tuner::sparse_launch_params(spec, m, n, mu);
      EXPECT_TRUE(p.config.internally_consistent());
      EXPECT_LE(p.config.block_size, spec.max_threads_per_block);
      EXPECT_LE(p.config.resources.smem_per_block, spec.smem_per_sm_bytes);
      const long long vectors =
          static_cast<long long>(p.config.grid_size) *
          p.config.num_vectors_per_block();
      EXPECT_GE(vectors * p.config.coarsening, m);
      EXPECT_GT(p.occupancy.blocks_per_sm, 0);
    }
  }
}

TEST(TunerProperties, DenseParamsValidAcrossRandomShapes) {
  Rng rng(19);
  const auto spec = vgpu::gtx_titan();
  for (int trial = 0; trial < 100; ++trial) {
    const auto m = static_cast<index_t>(1 + rng.uniform_index(1 << 20));
    const auto n = static_cast<index_t>(1 + rng.uniform_index(5000));
    const auto p = tuner::dense_launch_params(spec, m, n);
    EXPECT_TRUE(p.config.internally_consistent());
    EXPECT_GE(static_cast<long long>(p.config.vector_size) *
                  p.config.thread_load,
              n);
    EXPECT_LE(p.config.resources.regs_per_thread, spec.max_regs_per_thread);
  }
}

}  // namespace
}  // namespace fusedml
