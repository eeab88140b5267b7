// Correctness tests for every device kernel against the CPU references,
// including parameterized sweeps across matrix shapes and sparsities, plus
// counter sanity checks (the quantities the figures are built from).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "kernels/baselines.h"
#include "kernels/blas1.h"
#include "kernels/cpu_backend.h"
#include "kernels/fused_dense.h"
#include "kernels/fused_row.h"
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
using test::expect_same_bits;
using test::expect_same_counters;
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

// --- Transpose slot: X^T kept on the matrix, under the checksum rule ---------

using TransposeSlotTest = WarpTableTest;

TEST_F(TransposeSlotTest, ValuesMutBetweenProductsGivesTheNewValuesResult) {
  auto X = uniform_sparse(400, 200, 0.05, 412);
  const auto y = random_vector(400, 60);
  const auto before = spmv_t_explicit_transpose(dev, X, y);
  const auto fresh = random_vector(static_cast<usize>(X.nnz()), 61);
  const auto vals = X.values_mut();
  std::copy(fresh.begin(), fresh.end(), vals.begin());
  const auto after = spmv_t_explicit_transpose(dev, X, y);
  // A twin that never had a transpose kept on it.
  const auto want = spmv_t_explicit_transpose(dev, rebuilt(X), y);
  expect_same_bits(want.multiply.value, after.multiply.value);
  EXPECT_NE(before.multiply.value, after.multiply.value);
  expect_vectors_near(la::reference::spmv_transposed(X, y),
                      after.multiply.value, 1e-12);
}

TEST_F(TransposeSlotTest, CopiesShareOneTransposeAndEveryCallBillsCsr2csc) {
  const auto X = uniform_sparse(400, 200, 0.05, 413);
  const la::CsrMatrix copy = X;
  const auto y = random_vector(400, 62);
  const auto a = spmv_t_explicit_transpose(dev, X, y);
  const std::uint64_t after_first = builds();
  const auto b = spmv_t_explicit_transpose(dev, copy, y);
  EXPECT_EQ(la::kept_transpose(X).get(), la::kept_transpose(copy).get());
  EXPECT_EQ(builds(), after_first) << "X^T's warp table lives with X^T";
  expect_same_bits(a.multiply.value, b.multiply.value);
  EXPECT_EQ(a.transpose.launches, b.transpose.launches);
  EXPECT_GT(b.transpose.launches, 0u);
  EXPECT_EQ(a.transpose.modeled_ms, b.transpose.modeled_ms);
  EXPECT_EQ(a.multiply.modeled_ms, b.multiply.modeled_ms);
  EXPECT_TRUE(*la::kept_transpose(X) == la::transpose(X));
}

TEST_F(TransposeSlotTest, ValuesMutOnACopyLeavesTheOriginalsTranspose) {
  const auto X = uniform_sparse(300, 150, 0.05, 414);
  const auto kept = la::kept_transpose(X);
  auto copy = X;
  for (real& v : copy.values_mut()) v *= 2;
  EXPECT_EQ(la::kept_transpose(X).get(), kept.get());
  const auto mine = la::kept_transpose(copy);
  EXPECT_NE(mine.get(), kept.get());
  EXPECT_TRUE(*mine == la::transpose(rebuilt(copy)));
}

// la::transpose hands its caller a fresh X^T and keeps nothing on X, so a
// caller that stores the result holds X^T once.
TEST_F(TransposeSlotTest, TransposeLeavesTheSlotEmpty) {
  const auto X = uniform_sparse(300, 150, 0.05, 416);
  const la::CsrMatrix Xt = la::transpose(X);
  bool built = false;
  const auto kept = X.transposed([&] {
    built = true;
    return la::transpose(X);
  });
  EXPECT_TRUE(built) << "la::transpose filled X's slot";
  EXPECT_TRUE(*kept == Xt);
}

// Server workers share one dataset: concurrent transposed products on one
// matrix build X^T once and all read that one.
TEST_F(TransposeSlotTest, ConcurrentReadersShareOneBuild) {
  const auto X = uniform_sparse(300, 150, 0.05, 415);
  const auto y = random_vector(300, 63);
  constexpr int kThreads = 4;
  std::vector<const la::CsrMatrix*> seen(kThreads, nullptr);
  std::vector<std::vector<real>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      vgpu::Device own;
      got[static_cast<usize>(t)] =
          spmv_t_explicit_transpose(own, X, y).multiply.value;
      seen[static_cast<usize>(t)] = la::kept_transpose(X).get();
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[0], seen[static_cast<usize>(t)]);
    expect_same_bits(got[0], got[static_cast<usize>(t)]);
  }
}

// --- Outer maps: the shared identity runs inline, any other map by pointer ---

real local_identity(real x) { return x; }

void expect_same_device_op(const OpResult& want, const OpResult& got) {
  expect_same_bits(want.value, got.value);
  EXPECT_EQ(want.modeled_ms, got.modeled_ms);
  EXPECT_EQ(want.launches, got.launches);
  expect_same_counters(want.counters, got.counters);
}

void expect_same_cpu_op(const CpuOpResult& want, const CpuOpResult& got) {
  expect_same_bits(want.value, got.value);
  EXPECT_EQ(want.modeled_ms, got.modeled_ms);
}

class MapIdentity : public ::testing::Test {
 protected:
  void SetUp() override {
    // The test's own identity must take the pointer instantiation.
    ASSERT_NE(&local_identity, &identity_map);
  }
  vgpu::Device dev;
  CpuBackend cpu;
  // ALS's shapes: 300x150 CSR and 500x28 dense.
  la::CsrMatrix Xs = uniform_sparse(300, 150, 0.05, 416);
  la::DenseMatrix Xd = la::dense_random(500, 28, 417);
  std::vector<real> us = random_vector(300, 64);
  std::vector<real> vs = random_vector(150, 65);
  std::vector<real> zs = random_vector(150, 66);
  std::vector<real> ud = random_vector(500, 67);
  std::vector<real> vd = random_vector(28, 68);
  std::vector<real> zd = random_vector(28, 69);
};

TEST_F(MapIdentity, DeviceSddmmCsrIsBitEqualToThePointerPath) {
  expect_same_device_op(dev_fused_sddmm(dev, Xs, us, vs, zs, local_identity),
                        dev_fused_sddmm(dev, Xs, us, vs, zs, identity_map));
}

TEST_F(MapIdentity, DeviceSddmmDenseIsBitEqualToThePointerPath) {
  expect_same_device_op(dev_fused_sddmm(dev, Xd, ud, vd, zd, local_identity),
                        dev_fused_sddmm(dev, Xd, ud, vd, zd, identity_map));
}

TEST_F(MapIdentity, CpuSddmmIsBitEqualToThePointerPathOnBothStorages) {
  expect_same_cpu_op(cpu.fused_sddmm(Xs, us, vs, zs, local_identity),
                     cpu.fused_sddmm(Xs, us, vs, zs, identity_map));
  expect_same_cpu_op(cpu.fused_sddmm(Xd, ud, vd, zd, local_identity),
                     cpu.fused_sddmm(Xd, ud, vd, zd, identity_map));
}

TEST_F(MapIdentity, OuterMapsAreBitEqualToThePointerPath) {
  expect_same_device_op(dev_outer_map(dev, us, vs, local_identity),
                        dev_outer_map(dev, us, vs, identity_map));
  expect_same_cpu_op(cpu.outer_map(ud, vd, local_identity),
                     cpu.outer_map(ud, vd, identity_map));
}

// --- Algorithm 3's accumulation order, as a plain loop -----------------------

/// w = alpha X^T (v ⊙ X y) + beta z in the order Algorithm 3 adds it under
/// `cfg`: blocks in order, each first adding beta*z into its slice of w,
/// then each of its vectors summing its coarsened rows into a private l_w
/// (the dot lane by lane, each lane over its TL strided columns) and
/// flushing l_w's non-zero entries into w.
std::vector<real> algorithm3_order(const vgpu::LaunchConfig& cfg, real alpha,
                                   const la::DenseMatrix& X,
                                   std::span<const real> v,
                                   std::span<const real> y, real beta,
                                   std::span<const real> z) {
  const auto n = static_cast<usize>(X.cols());
  const long long m = X.rows();
  const int nv = cfg.block_size / cfg.vector_size;
  const long long vectors = static_cast<long long>(cfg.grid_size) * nv;
  const auto bs = static_cast<usize>(cfg.block_size);
  std::vector<real> w(n, real{0});
  for (int b = 0; b < cfg.grid_size; ++b) {
    if (!z.empty() && beta != 0) {
      for (usize base = static_cast<usize>(b) * bs; base < n;
           base += static_cast<usize>(cfg.grid_size) * bs) {
        for (usize i = base; i < std::min(n, base + bs); ++i) {
          w[i] += beta * z[i];
        }
      }
    }
    for (int vec = 0; vec < nv; ++vec) {
      std::vector<real> l_w(n, real{0});
      for (int c = 0; c < cfg.coarsening; ++c) {
        const long long r = static_cast<long long>(b) * nv + vec + c * vectors;
        if (r >= m) break;
        const auto row = X.row(static_cast<index_t>(r));
        real s = 0;
        for (int lane = 0; lane < cfg.vector_size; ++lane) {
          real lane_sum = 0;
          for (int t = 0; t < cfg.thread_load; ++t) {
            const auto j = static_cast<usize>(lane + t * cfg.vector_size);
            if (j < n) lane_sum += row[j] * y[j];
          }
          s += lane_sum;
        }
        if (!v.empty()) s *= v[static_cast<usize>(r)];
        for (usize j = 0; j < n; ++j) l_w[j] += row[j] * s;
      }
      for (usize j = 0; j < n; ++j) {
        if (l_w[j] != real{0}) w[j] += alpha * l_w[j];
      }
    }
  }
  return w;
}

TEST(DenseAlgorithm3Order, FusedPatternDenseIsBitEqualToThePlainLoop) {
  vgpu::Device dev;
  int cases = 0;
  for (index_t n : {1, 28, 32}) {
    for (int thread_load : {0, 2}) {
      for (int coarsening : {1, 3}) {
        FusedDenseOptions opts;
        opts.block_size = 64;
        opts.thread_load = thread_load;
        opts.coarsening = coarsening;
        const la::DenseMatrix probe(1, n);
        const auto geometry = fused_dense_params(dev, probe, opts).config;
        const long long vectors =
            static_cast<long long>(geometry.grid_size) *
            geometry.num_vectors_per_block();
        // A partial last block, and with coarsening a partial last pass.
        const auto m = static_cast<index_t>(
            coarsening == 1 ? vectors - 3 : coarsening * vectors - 5);
        const auto X = la::dense_random(m, n, 418 + static_cast<int>(n));
        const auto cfg = fused_dense_params(dev, X, opts).config;
        ASSERT_EQ(cfg.coarsening, coarsening);
        const auto y = random_vector(static_cast<usize>(n), 70);
        const auto v = random_vector(static_cast<usize>(m), 71);
        const auto z = random_vector(static_cast<usize>(n), 72);
        for (bool with_v : {false, true}) {
          for (bool with_z : {false, true}) {
            SCOPED_TRACE("n=" + std::to_string(n) + " TL=" +
                         std::to_string(cfg.thread_load) + " VS=" +
                         std::to_string(cfg.vector_size) + " coarsening=" +
                         std::to_string(coarsening) + " v=" +
                         std::to_string(with_v) + " z=" +
                         std::to_string(with_z));
            const std::span<const real> vv =
                with_v ? std::span<const real>(v) : std::span<const real>{};
            const std::span<const real> zz =
                with_z ? std::span<const real>(z) : std::span<const real>{};
            const auto want = algorithm3_order(cfg, 0.75, X, vv, y, 1.5, zz);
            expect_same_bits(
                want,
                fused_pattern_dense(dev, 0.75, X, vv, y, 1.5, zz, opts).value);
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 48);
}

}  // namespace
}  // namespace fusedml::kernels
