// Correctness tests for every device kernel against the CPU references,
// including parameterized sweeps across matrix shapes and sparsities, plus
// counter sanity checks (the quantities the figures are built from).
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "kernels/baselines.h"
#include "kernels/blas1.h"
#include "kernels/cpu_backend.h"
#include "kernels/fused_dense.h"
#include "kernels/fused_sparse.h"
#include "kernels/gemv.h"
#include "kernels/spmv.h"
#include "kernels/spmv_transpose.h"
#include "la/convert.h"
#include "la/generate.h"
#include "la/vector_ops.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace fusedml::kernels {
namespace {

using la::random_vector;
using la::uniform_sparse;
using test::expect_vectors_near;

// --- BLAS-1 -----------------------------------------------------------------

class Blas1Test : public ::testing::Test {
 protected:
  vgpu::Device dev;
};

TEST_F(Blas1Test, Axpy) {
  auto x = random_vector(1000, 1);
  auto y = random_vector(1000, 2);
  auto expect = y;
  la::axpy(2.5, x, expect);
  const auto got = dev_axpy(dev, 2.5, x, y);
  expect_vectors_near(expect, got.value);
  EXPECT_EQ(got.launches, 1u);
  EXPECT_GT(got.counters.gld_bytes, 2 * 1000 * sizeof(real) - 1);
}

TEST_F(Blas1Test, Scal) {
  auto x = random_vector(333, 3);
  auto expect = x;
  la::scal(-1.5, expect);
  expect_vectors_near(expect, dev_scal(dev, -1.5, x).value);
}

TEST_F(Blas1Test, DotAndNrm2) {
  const auto x = random_vector(4097, 4);
  const auto y = random_vector(4097, 5);
  EXPECT_NEAR(dev_dot(dev, x, y).value[0], la::dot(x, y), 1e-9);
  EXPECT_NEAR(dev_nrm2(dev, x).value[0], la::nrm2(x), 1e-9);
}

TEST_F(Blas1Test, EwiseMulAndScaleInto) {
  const auto x = random_vector(100, 6);
  const auto y = random_vector(100, 7);
  std::vector<real> expect(100);
  la::ewise_mul(x, y, expect);
  expect_vectors_near(expect, dev_ewise_mul(dev, x, y).value);

  auto scaled = dev_scale_into(dev, 3.0, x);
  for (usize i = 0; i < x.size(); ++i) {
    EXPECT_DOUBLE_EQ(scaled.value[i], 3.0 * x[i]);
  }
}

TEST_F(Blas1Test, EmptyVectorsAreFine) {
  std::vector<real> empty;
  EXPECT_EQ(dev_nrm2(dev, empty).value[0], 0.0);
}

// --- Sparse SpMV sweep --------------------------------------------------------

struct SparseCase {
  index_t m, n;
  double sparsity;
};

class SpmvSweep : public ::testing::TestWithParam<SparseCase> {
 protected:
  vgpu::Device dev;
};

TEST_P(SpmvSweep, CsrVectorMatchesReference) {
  const auto [m, n, s] = GetParam();
  const auto X = uniform_sparse(m, n, s, 101);
  const auto y = random_vector(static_cast<usize>(n), 9);
  expect_vectors_near(la::reference::spmv(X, y),
                      spmv_csr_vector(dev, X, y).value);
}

TEST_P(SpmvSweep, CsrScalarMatchesReference) {
  const auto [m, n, s] = GetParam();
  const auto X = uniform_sparse(m, n, s, 102);
  const auto y = random_vector(static_cast<usize>(n), 10);
  expect_vectors_near(la::reference::spmv(X, y),
                      spmv_csr_scalar(dev, X, y).value);
}

TEST_P(SpmvSweep, AtomicScatterTransposeMatchesReference) {
  const auto [m, n, s] = GetParam();
  const auto X = uniform_sparse(m, n, s, 103);
  const auto y = random_vector(static_cast<usize>(m), 11);
  expect_vectors_near(la::reference::spmv_transposed(X, y),
                      spmv_t_atomic_scatter(dev, X, y).value);
}

TEST_P(SpmvSweep, ExplicitTransposeMatchesReference) {
  const auto [m, n, s] = GetParam();
  const auto X = uniform_sparse(m, n, s, 104);
  const auto y = random_vector(static_cast<usize>(m), 12);
  const auto split = spmv_t_explicit_transpose(dev, X, y);
  expect_vectors_near(la::reference::spmv_transposed(X, y),
                      split.multiply.value);
  EXPECT_GT(split.transpose.modeled_ms, 0.0);
  // Transpose costs several kernels.
  EXPECT_GE(split.transpose.launches, 3u);
}

TEST_P(SpmvSweep, FusedSpmvTMatchesReference) {
  const auto [m, n, s] = GetParam();
  const auto X = uniform_sparse(m, n, s, 105);
  const auto p = random_vector(static_cast<usize>(m), 13);
  expect_vectors_near(la::reference::spmv_transposed(X, p),
                      fused_spmv_t(dev, X, p).value);
}

TEST_P(SpmvSweep, FusedSpmvTWithAlpha) {
  const auto [m, n, s] = GetParam();
  const auto X = uniform_sparse(m, n, s, 106);
  const auto p = random_vector(static_cast<usize>(m), 14);
  auto expect = la::reference::spmv_transposed(X, p);
  la::scal(2.0, expect);
  expect_vectors_near(expect, fused_spmv_t(dev, X, p, 2.0).value);
}

TEST_P(SpmvSweep, FusedPatternMatchesReference) {
  const auto [m, n, s] = GetParam();
  const auto X = uniform_sparse(m, n, s, 107);
  const auto y = random_vector(static_cast<usize>(n), 15);
  const auto v = random_vector(static_cast<usize>(m), 16);
  const auto z = random_vector(static_cast<usize>(n), 17);
  const real alpha = 1.25, beta = -0.75;
  const auto got = fused_pattern_sparse(dev, alpha, X, v, y, beta, z);
  expect_vectors_near(la::reference::pattern(alpha, X, v, y, beta, z),
                      got.value);
  EXPECT_EQ(got.launches, 1u) << "the whole pattern must be ONE kernel";
}

TEST_P(SpmvSweep, FusedPatternGlobalAggregationMatches) {
  const auto [m, n, s] = GetParam();
  const auto X = uniform_sparse(m, n, s, 108);
  const auto y = random_vector(static_cast<usize>(n), 18);
  FusedSparseOptions opts;
  opts.aggregation = tuner::Aggregation::kGlobal;
  expect_vectors_near(la::reference::pattern(1, X, {}, y, 0, {}),
                      fused_pattern_sparse(dev, 1, X, {}, y, 0, {}, opts).value);
}

TEST_P(SpmvSweep, BaselinePipelinesMatchReference) {
  const auto [m, n, s] = GetParam();
  const auto X = uniform_sparse(m, n, s, 109);
  const auto y = random_vector(static_cast<usize>(n), 19);
  const auto v = random_vector(static_cast<usize>(m), 20);
  const auto z = random_vector(static_cast<usize>(n), 21);
  const auto expect = la::reference::pattern(0.5, X, v, y, 2.0, z);
  for (auto library : {BaselineLibrary::kVendor, BaselineLibrary::kBidmat}) {
    const auto got = baseline_pattern(dev, 0.5, X, v, y, 2.0, z, library);
    expect_vectors_near(expect, got.value);
    EXPECT_GE(got.launches, 4u) << "baseline is operator-at-a-time";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpmvSweep,
    ::testing::Values(SparseCase{64, 32, 0.2},      // tiny
                      SparseCase{500, 200, 0.01},   // short rows (VS=2)
                      SparseCase{300, 1000, 0.05},  // wide, VS=32
                      SparseCase{1000, 100, 0.1},   // tall
                      SparseCase{128, 7000, 0.01},  // n beyond smem limit
                      SparseCase{77, 33, 0.0},      // empty matrix
                      SparseCase{1, 50, 0.5},       // single row
                      SparseCase{50, 1, 0.5}));     // single column

// --- Dense kernels --------------------------------------------------------------

struct DenseCase {
  index_t m, n;
};

class DenseSweep : public ::testing::TestWithParam<DenseCase> {
 protected:
  vgpu::Device dev;
};

TEST_P(DenseSweep, GemvMatchesReference) {
  const auto [m, n] = GetParam();
  const auto X = la::dense_random(m, n, 201);
  const auto y = random_vector(static_cast<usize>(n), 22);
  for (auto library : {BaselineLibrary::kVendor, BaselineLibrary::kBidmat}) {
    expect_vectors_near(la::reference::gemv(X, y),
                        gemv_n(dev, X, y, library).value);
  }
}

TEST_P(DenseSweep, GemvTMatchesReference) {
  const auto [m, n] = GetParam();
  const auto X = la::dense_random(m, n, 202);
  const auto p = random_vector(static_cast<usize>(m), 23);
  for (auto library : {BaselineLibrary::kVendor, BaselineLibrary::kBidmat}) {
    expect_vectors_near(la::reference::gemv_transposed(X, p),
                        gemv_t(dev, X, p, library).value);
  }
}

TEST_P(DenseSweep, FusedDenseMatchesReference) {
  const auto [m, n] = GetParam();
  const auto X = la::dense_random(m, n, 203);
  const auto y = random_vector(static_cast<usize>(n), 24);
  const auto v = random_vector(static_cast<usize>(m), 25);
  const auto z = random_vector(static_cast<usize>(n), 26);
  const real alpha = -1.5, beta = 0.25;
  const auto got = fused_pattern_dense(dev, alpha, X, v, y, beta, z);
  expect_vectors_near(la::reference::pattern(alpha, X, v, y, beta, z),
                      got.value);
  EXPECT_EQ(got.launches, 1u);
}

TEST_P(DenseSweep, FusedDenseNoCodegenMatchesAndSpills) {
  const auto [m, n] = GetParam();
  const auto X = la::dense_random(m, n, 204);
  const auto y = random_vector(static_cast<usize>(n), 27);
  FusedDenseOptions opts;
  opts.use_codegen = false;
  const auto got = fused_pattern_dense(dev, 1, X, {}, y, 0, {}, opts);
  expect_vectors_near(la::reference::pattern(1, X, {}, y, 0, {}), got.value);
  EXPECT_GT(got.counters.local_spill_bytes, 0u)
      << "runtime-indexed registers must charge local-memory traffic";
}

TEST_P(DenseSweep, BaselineDensePipelinesMatch) {
  const auto [m, n] = GetParam();
  const auto X = la::dense_random(m, n, 205);
  const auto y = random_vector(static_cast<usize>(n), 28);
  const auto expect = la::reference::pattern(1, X, {}, y, 0, {});
  for (auto library : {BaselineLibrary::kVendor, BaselineLibrary::kBidmat}) {
    expect_vectors_near(expect, baseline_xtxy(dev, X, y, library).value);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DenseSweep,
    ::testing::Values(DenseCase{100, 28},    // HIGGS-like (n <= 32 path)
                      DenseCase{64, 32},     // exactly warp-sized rows
                      DenseCase{200, 200},   // n not a multiple of VS
                      DenseCase{50, 1000},   // wide
                      DenseCase{1000, 17},   // odd tiny n
                      DenseCase{1, 64}));    // single row

// --- Counter-level expectations (what the figures measure) --------------------

TEST(Counters, FusedLoadsLessThanExplicitTranspose) {
  vgpu::Device dev;
  // Figure-2 regime: enough non-zeros that per-row floors (row_off, p) do
  // not dominate the traffic.
  const auto X = uniform_sparse(20000, 400, 0.05, 301);
  const auto y = random_vector(20000, 30);
  const auto fused = fused_spmv_t(dev, X, y);
  const auto baseline = spmv_t_explicit_transpose(dev, X, y).combined();
  // Fig. 2-bottom: cuSPARSE performs ~3.5x more load transactions.
  EXPECT_GT(static_cast<double>(baseline.counters.total_load_transactions()),
            1.5 * static_cast<double>(fused.counters.total_load_transactions()));
  // And far more store traffic (scattered CSC writes).
  EXPECT_GT(baseline.counters.gst_transactions,
            4 * fused.counters.gst_transactions);
}

TEST(Counters, FusedPatternLoadsXRoughlyTwiceWithSecondPassCached) {
  vgpu::Device dev;
  const auto X = uniform_sparse(3000, 500, 0.02, 302);
  const auto y = random_vector(500, 31);
  const auto r = fused_pattern_sparse(dev, 1, X, {}, y, 0, {});
  // Second pass hits L2: cached transactions should be close to the cold
  // ones (same row walked twice).
  EXPECT_GT(r.counters.l2_hit_transactions, 0u);
  const double ratio = static_cast<double>(r.counters.l2_hit_transactions) /
                       static_cast<double>(r.counters.gld_transactions);
  EXPECT_GT(ratio, 0.4);
  EXPECT_LT(ratio, 1.2);
}

TEST(Counters, DenseFusedLoadsXOnce) {
  vgpu::Device dev;
  const auto X = la::dense_random(2000, 256, 303);
  const auto y = random_vector(256, 32);
  const auto fused = fused_pattern_dense(dev, 1, X, {}, y, 0, {});
  const auto baseline = baseline_xtxy(dev, X, y, BaselineLibrary::kBidmat);
  // Baseline streams X twice; fused once (§4.2: "most of the gain ... comes
  // from loading X only once").
  const double x_bytes = static_cast<double>(X.bytes());
  EXPECT_NEAR(static_cast<double>(fused.counters.gld_bytes), x_bytes,
              0.25 * x_bytes);
  EXPECT_GT(static_cast<double>(baseline.counters.gld_bytes),
            1.7 * x_bytes);
}

TEST(Counters, TextureOptionRoutesYLoads) {
  vgpu::Device dev;
  const auto X = uniform_sparse(500, 100, 0.1, 304);
  const auto y = random_vector(100, 33);
  FusedSparseOptions tex, no_tex;
  no_tex.texture_y = false;
  const auto with_tex = fused_pattern_sparse(dev, 1, X, {}, y, 0, {}, tex);
  const auto without = fused_pattern_sparse(dev, 1, X, {}, y, 0, {}, no_tex);
  EXPECT_GT(with_tex.counters.tex_transactions, 0u);
  EXPECT_GT(without.counters.gld_transactions,
            with_tex.counters.gld_transactions);
}

// --- CPU backend ----------------------------------------------------------------

TEST(CpuBackend, MatchesReferencesAndTimes) {
  CpuBackend cpu;
  const auto X = uniform_sparse(300, 150, 0.05, 401);
  const auto y = random_vector(150, 40);
  const auto v = random_vector(300, 41);
  const auto z = random_vector(150, 42);

  expect_vectors_near(la::reference::spmv(X, y), cpu.product(X, y).value);
  const auto pat = cpu.pattern(2.0, X, v, y, 0.5, z);
  expect_vectors_near(la::reference::pattern(2.0, X, v, y, 0.5, z), pat.value);
  EXPECT_GT(pat.modeled_ms, 0.0);
  EXPECT_GE(pat.wall_ms, 0.0);
}

TEST(CpuBackend, DenseAndBlas1) {
  CpuBackend cpu;
  const auto X = la::dense_random(100, 60, 402);
  const auto y = random_vector(60, 43);
  expect_vectors_near(la::reference::gemv(X, y), cpu.product(X, y).value);

  auto a = random_vector(500, 44);
  auto b = random_vector(500, 45);
  EXPECT_NEAR(cpu.dot(a, b).value[0], la::dot(a, b), 1e-9);
  EXPECT_NEAR(cpu.nrm2(a).value[0], la::nrm2(a), 1e-9);
}

TEST(CpuBackend, ModeledTimeScalesWithSize) {
  CpuBackend cpu;
  const auto small = uniform_sparse(200, 100, 0.05, 403);
  const auto large = uniform_sparse(4000, 100, 0.05, 404);
  const auto y = random_vector(100, 46);
  EXPECT_LT(cpu.product(small, y).modeled_ms,
            cpu.product(large, y).modeled_ms);
}

TEST(CpuBackend, CostOnlyMembersEqualTheOpsModeledMs) {
  CpuBackend cpu;
  const auto Xs = uniform_sparse(300, 150, 0.05, 405);
  const auto Xd = la::dense_random(120, 40, 406);
  const auto ys = random_vector(150, 47);
  const auto yd = random_vector(40, 48);
  EXPECT_EQ(cpu.transposed_product_ms(Xs),
            cpu.transposed_product(Xs, random_vector(300, 49)).modeled_ms);
  EXPECT_EQ(cpu.transposed_product_ms(Xd),
            cpu.transposed_product(Xd, random_vector(120, 50)).modeled_ms);
  for (bool has_v : {false, true}) {
    for (bool has_z : {false, true}) {
      const auto vs = has_v ? random_vector(300, 51) : std::vector<real>{};
      const auto zs = has_z ? random_vector(150, 52) : std::vector<real>{};
      EXPECT_EQ(cpu.pattern_ms(Xs, has_v, has_z),
                cpu.pattern(0.5, Xs, vs, ys, 2.0, zs).modeled_ms);
      const auto vd = has_v ? random_vector(120, 53) : std::vector<real>{};
      const auto zd = has_z ? random_vector(40, 54) : std::vector<real>{};
      EXPECT_EQ(cpu.pattern_ms(Xd, has_v, has_z),
                cpu.pattern(0.5, Xd, vd, yd, 2.0, zd).modeled_ms);
    }
  }
}

// --- Sparse launch geometry ------------------------------------------------------

// A block whose vector count is not a multiple of 32/VS ends in a warp that
// also sweeps the next block's first rows; the fused kernels would add those
// rows twice. Such overrides are rejected by name.
TEST(FusedSparseGeometry, RejectsBlockOverridesThatSplitAWarp) {
  vgpu::Device dev;
  const auto X = la::kdd_like(165, 40, 6.0, 1.5, 407);
  const auto p = random_vector(165, 55);
  const auto y = random_vector(40, 56);
  FusedSparseOptions opts;
  opts.vector_size = 4;
  opts.block_size = 48;
  try {
    fused_spmv_t(dev, X, p, 1.0, opts);
    ADD_FAILURE() << "block size 48 at VS 4 must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("block size override 48"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(fused_pattern_sparse(dev, 1, X, {}, y, 0, {}, opts), Error);
  // The warp accounting knows only VS that divide a warp.
  for (int vs : {3, 64}) {
    SpmvOptions spmv_opts;
    spmv_opts.vector_size = vs;
    EXPECT_THROW(spmv_csr_vector(dev, X, y, spmv_opts), Error) << vs;
  }
  for (int bs : {32, 64, 96}) {
    opts.block_size = bs;
    expect_vectors_near(la::reference::spmv_transposed(X, p),
                        fused_spmv_t(dev, X, p, 1.0, opts).value, 1e-12);
    expect_vectors_near(la::reference::pattern(1, X, {}, y, 0, {}),
                        fused_pattern_sparse(dev, 1, X, {}, y, 0, {}, opts)
                            .value,
                        1e-12);
  }
}

// --- Warp tables: one per (structure, VS), owned by the matrix -------------------

class WarpTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::metrics().enable();
    obs::metrics().reset();
  }
  void TearDown() override {
    obs::metrics().reset();
    obs::metrics().disable();
  }
  static std::uint64_t builds() {
    return obs::metrics().counter("kernels.warp_table_builds").value();
  }
  static std::uint64_t hits() {
    return obs::metrics().counter("kernels.warp_table_hits").value();
  }
  static void expect_same_traffic(const vgpu::MemCounters& a,
                                  const vgpu::MemCounters& b) {
    EXPECT_EQ(a.gld_transactions, b.gld_transactions);
    EXPECT_EQ(a.gld_bytes, b.gld_bytes);
    EXPECT_EQ(a.l2_hit_transactions, b.l2_hit_transactions);
    EXPECT_EQ(a.tex_transactions, b.tex_transactions);
  }
  /// A matrix equal to X that never shared X's tables.
  static la::CsrMatrix rebuilt(const la::CsrMatrix& X) {
    return la::CsrMatrix(
        X.rows(), X.cols(), {X.row_off().begin(), X.row_off().end()},
        {X.col_idx().begin(), X.col_idx().end()},
        {X.values().begin(), X.values().end()});
  }
  vgpu::Device dev;
};

TEST_F(WarpTableTest, CopiesShareOneTable) {
  const auto X = uniform_sparse(500, 300, 0.05, 408);
  const la::CsrMatrix copy = X;
  const auto y = random_vector(300, 57);
  const auto a = spmv_csr_vector(dev, X, y);
  const auto b = spmv_csr_vector(dev, copy, y);
  EXPECT_EQ(builds(), 1u);
  EXPECT_EQ(hits(), 1u);
  expect_same_traffic(a.counters, b.counters);
  const int vs = vector_size_for(X.mean_nnz_per_row());
  bool built = true;
  const auto never = [] {
    ADD_FAILURE() << "a shared table must not be rebuilt";
    return la::WarpTable{};
  };
  const la::WarpTable& mine = X.warp_table(vs, never, &built);
  EXPECT_FALSE(built);
  EXPECT_EQ(&mine, &copy.warp_table(vs, never, &built));
  EXPECT_TRUE(X == copy);
}

TEST_F(WarpTableTest, ValuesMutChangesResultsButNotCounters) {
  const auto X = uniform_sparse(400, 200, 0.05, 409);
  auto scaled = X;
  for (real& v : scaled.values_mut()) v *= 3.0;
  EXPECT_FALSE(X == scaled);
  const auto y = random_vector(200, 58);
  const auto a = fused_pattern_sparse(dev, 1, X, {}, y, 0, {});
  const auto b = fused_pattern_sparse(dev, 1, scaled, {}, y, 0, {});
  EXPECT_EQ(builds(), 1u) << "values_mut keeps the structure's table";
  expect_vectors_near(la::reference::pattern(1, scaled, {}, y, 0, {}),
                      b.value);
  EXPECT_NE(a.value, b.value);
  expect_same_traffic(a.counters, b.counters);
  // A rebuilt twin of the mutated copy builds its own table and agrees.
  const auto c = fused_pattern_sparse(dev, 1, rebuilt(scaled), {}, y, 0, {});
  EXPECT_EQ(builds(), 2u);
  expect_same_traffic(b.counters, c.counters);
}

TEST_F(WarpTableTest, MatrixBuiltAfterAnotherIsDestroyedGetsItsOwnTable) {
  const auto y = random_vector(200, 59);
  {
    const auto gone = uniform_sparse(400, 200, 0.05, 410);
    spmv_csr_vector(dev, gone, y);
  }
  // Same shape, different structure: its allocations may reuse the
  // destroyed matrix's addresses, but never its table.
  const auto X = la::kdd_like(400, 200, 10.0, 1.5, 411);
  const auto got = spmv_csr_vector(dev, X, y);
  EXPECT_EQ(builds(), 2u);
  EXPECT_EQ(hits(), 0u);
  expect_same_traffic(spmv_csr_vector(dev, rebuilt(X), y).counters,
                      got.counters);
}

}  // namespace
}  // namespace fusedml::kernels
