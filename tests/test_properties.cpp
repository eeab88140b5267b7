// Property-based suites: randomized fuzzing of every kernel against the
// CPU oracles across seeds/shapes (TEST_P sweeps), algebraic identities of
// the pattern, coalescing-model invariants, occupancy monotonicity, and
// cost-model sanity under random counter loads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "kernels/baselines.h"
#include "kernels/fused_dense.h"
#include "kernels/fused_row.h"
#include "kernels/fused_sparse.h"
#include "kernels/gemv.h"
#include "kernels/resource_profile.h"
#include "kernels/spmv.h"
#include "kernels/spmv_transpose.h"
#include "kernels/texture_model.h"
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
#include "vgpu/mem_tracker.h"
#include "vgpu/occupancy.h"

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

// --- Sparse warp accounting vs an access-by-access recount -------------------
//
// The sparse kernels charge each warp's CSR passes from a per-structure
// table. These tests recount every load and store each kernel issues from
// scratch: the warp passes step by step, each step's lane addresses handed
// to vgpu::gather_transactions, on ragged matrices (empty rows, rows over
// 1024 nonzeros) at every VS. The other counters are recounted too: flops
// per lane step, the shuffles of each row's butterfly reduction, shared-memory
// accesses and bank conflicts, and global and shared atomics with their
// targets.

/// Ragged CSR: about a quarter of the rows empty, one in twenty with more
/// than 1024 nonzeros, the rest short.
la::CsrMatrix ragged_csr(Rng& rng, index_t m, index_t n) {
  std::vector<offset_t> row_off{0};
  std::vector<index_t> col_idx;
  std::vector<real> values;
  std::vector<index_t> cols(static_cast<usize>(n));
  for (index_t r = 0; r < m; ++r) {
    const double u = rng.uniform();
    const auto len = static_cast<index_t>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(n),
        u < 0.25   ? 0
        : u < 0.30 ? 1025 + rng.uniform_index(300)
                   : 1 + rng.uniform_index(40)));
    std::iota(cols.begin(), cols.end(), index_t{0});
    for (index_t k = 0; k < len; ++k) {
      const auto j = k + static_cast<index_t>(rng.uniform_index(
                             static_cast<std::uint64_t>(n - k)));
      std::swap(cols[static_cast<usize>(k)], cols[static_cast<usize>(j)]);
    }
    std::sort(cols.begin(), cols.begin() + len);
    for (index_t k = 0; k < len; ++k) {
      col_idx.push_back(cols[static_cast<usize>(k)]);
      values.push_back(rng.uniform(-1.0, 1.0));
    }
    row_off.push_back(static_cast<offset_t>(col_idx.size()));
  }
  return la::CsrMatrix(m, n, std::move(row_off), std::move(col_idx),
                       std::move(values));
}

/// One warp's pass over rows [first, first + rows) with `vs` lanes per row:
/// at step k every vector's lanes read its row's chunk k. Loads the CSR
/// element array (elem_bytes wide) or, with `gather_y`, y[col_idx].
void recount_pass(vgpu::MemTracker& mem, const la::CsrMatrix& X,
                  long long first, int rows, int vs, usize elem_bytes,
                  bool gather_y, vgpu::MemPath path) {
  offset_t longest = 0;
  for (int v = 0; v < rows; ++v) {
    longest = std::max<offset_t>(longest,
                                 X.row_nnz(static_cast<index_t>(first + v)));
  }
  for (offset_t k = 0; k < longest; k += vs) {
    std::vector<std::uint64_t> addrs;
    for (int v = 0; v < rows; ++v) {
      const auto r = static_cast<index_t>(first + v);
      const offset_t end = std::min(X.row_end(r), X.row_begin(r) + k + vs);
      for (offset_t i = X.row_begin(r) + k; i < end; ++i) {
        addrs.push_back(
            gather_y ? static_cast<std::uint64_t>(
                           X.col_idx()[static_cast<usize>(i)]) *
                           sizeof(real)
                     : static_cast<std::uint64_t>(i) * elem_bytes);
      }
    }
    mem.load_precomputed(vgpu::gather_transactions(addrs),
                         addrs.size() * elem_bytes, path);
  }
}

/// Calls body(first_row, rows) for every warp of X at VS — each row once.
template <typename Body>
void for_each_warp(const la::CsrMatrix& X, int vs, Body&& body) {
  const int rows_per_warp = std::max(1, 32 / vs);
  for (long long first = 0; first < X.rows(); first += rows_per_warp) {
    body(first, static_cast<int>(std::min<long long>(rows_per_warp,
                                                     X.rows() - first)));
  }
}

/// Values and col_idx passes of one warp on `path`.
void recount_data(vgpu::MemTracker& mem, const la::CsrMatrix& X,
                  long long first, int rows, int vs, vgpu::MemPath path) {
  recount_pass(mem, X, first, rows, vs, sizeof(real), false, path);
  recount_pass(mem, X, first, rows, vs, sizeof(index_t), false, path);
}

/// Calls step(r, k0, lanes) for every step of every row of the warp: a
/// vector's lanes take the row's elements [k0, k0 + lanes).
template <typename Step>
void for_each_lane_step(const la::CsrMatrix& X, long long first, int rows,
                        int vs, Step&& step) {
  for (int v = 0; v < rows; ++v) {
    const auto r = static_cast<index_t>(first + v);
    for (offset_t k0 = X.row_begin(r); k0 < X.row_end(r); k0 += vs) {
      step(r, k0, static_cast<int>(std::min<offset_t>(vs, X.row_end(r) - k0)));
    }
  }
}

/// Shuffles of one butterfly reduction over VS lanes: VS/2 + VS/4 + ... + 1.
std::uint64_t reduce_shuffles(int vs) {
  std::uint64_t ops = 0;
  for (int offset = vs / 2; offset > 0; offset /= 2) {
    ops += static_cast<std::uint64_t>(offset);
  }
  return ops;
}

/// A warp's row products: `lane_flops` per lane per step, then one
/// butterfly reduction per row, empty rows included.
void recount_row_products(vgpu::MemCounters& want, const la::CsrMatrix& X,
                          long long first, int rows, int vs,
                          std::uint64_t lane_flops) {
  for_each_lane_step(X, first, rows, vs, [&](index_t, offset_t, int lanes) {
    want.flops += lane_flops * static_cast<std::uint64_t>(lanes);
  });
  want.shuffle_ops += static_cast<std::uint64_t>(rows) * reduce_shuffles(vs);
}

/// Extra passes of one warp-wide shared-memory access: lanes that meet in a
/// bank at different words serialize, lanes at one word share a broadcast.
std::uint64_t bank_conflicts(std::span<const usize> words, int banks) {
  std::map<usize, std::set<usize>> by_bank;
  for (const usize w : words) by_bank[w % static_cast<usize>(banks)].insert(w);
  usize passes = 1;
  for (const auto& [bank, distinct] : by_bank) {
    passes = std::max(passes, distinct.size());
  }
  return static_cast<std::uint64_t>(passes - 1);
}

/// One lane step of a transposed product's scatter of row r's elements
/// [k0, k0 + lanes) into the n outputs: with shared aggregation, one bank-
/// checked warp access and one shared atomic per lane on word `nv + col`
/// (the block's staging area holds nv words first); else one global atomic
/// per lane over n targets.
void recount_scatter_step(vgpu::MemTracker& mem, const la::CsrMatrix& X,
                          offset_t k0, int lanes, bool shared, usize nv,
                          int banks) {
  auto& want = mem.counters();
  if (!shared) {
    mem.atomic_global(static_cast<std::uint64_t>(lanes),
                      static_cast<std::uint64_t>(X.cols()));
    return;
  }
  std::vector<usize> words;
  for (int l = 0; l < lanes; ++l) {
    words.push_back(nv + static_cast<usize>(
                             X.col_idx()[static_cast<usize>(k0 + l)]));
  }
  want.smem_accesses += 2 * static_cast<std::uint64_t>(lanes);
  want.atomic_shared_ops += static_cast<std::uint64_t>(lanes);
  want.smem_bank_conflicts += bank_conflicts(words, banks);
}

/// The inter-block aggregation of a shared-aggregation launch: every block
/// of the grid reads its n partial sums from shared memory and adds them to
/// the n outputs with global atomics, `flops_per_output` each.
void recount_block_aggregation(vgpu::MemTracker& mem, int grid_size, usize n,
                               std::uint64_t flops_per_output) {
  for (int b = 0; b < grid_size; ++b) {
    mem.counters().smem_accesses += n;
    mem.atomic_global(n, n);
    mem.add_flops(flops_per_output * n);
  }
}

void expect_counters_eq(const vgpu::MemCounters& want,
                        const vgpu::MemCounters& got,
                        const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(want.gld_transactions, got.gld_transactions);
  EXPECT_EQ(want.gst_transactions, got.gst_transactions);
  EXPECT_EQ(want.gld_bytes, got.gld_bytes);
  EXPECT_EQ(want.gst_bytes, got.gst_bytes);
  EXPECT_EQ(want.l2_hit_transactions, got.l2_hit_transactions);
  EXPECT_EQ(want.tex_transactions, got.tex_transactions);
  EXPECT_EQ(want.atomic_global_ops, got.atomic_global_ops);
  EXPECT_EQ(want.atomic_shared_ops, got.atomic_shared_ops);
  EXPECT_EQ(want.atomic_global_targets, got.atomic_global_targets);
  EXPECT_EQ(want.atomic_int_ops, got.atomic_int_ops);
  EXPECT_EQ(want.atomic_int_targets, got.atomic_int_targets);
  EXPECT_EQ(want.smem_accesses, got.smem_accesses);
  EXPECT_EQ(want.smem_bank_conflicts, got.smem_bank_conflicts);
  EXPECT_EQ(want.shuffle_ops, got.shuffle_ops);
  EXPECT_EQ(want.local_spill_bytes, got.local_spill_bytes);
  EXPECT_EQ(want.flops, got.flops);
}

struct SweepCase {
  std::string name;
  la::CsrMatrix X;
};

/// Two ragged matrices — y over and under the texture cache — and a
/// uniform one whose Eq. 4 VS is small, for the kernels that pick VS.
std::vector<SweepCase> sweep_cases() {
  Rng rng(2024);
  std::vector<SweepCase> cases;
  cases.push_back({"ragged 301x7000", ragged_csr(rng, 301, 7000)});
  cases.push_back({"ragged 333x3000", ragged_csr(rng, 333, 3000)});
  cases.push_back({"uniform 411x3000", uniform_sparse(411, 3000, 0.002, 9)});
  return cases;
}

TEST(SparseWarpCounters, RowProductsMatchAnAccessByAccessRecount) {
  vgpu::Device dev;
  const auto& spec = dev.spec();
  for (const auto& [name, X] : sweep_cases()) {
    const auto n = static_cast<usize>(X.cols());
    const auto m = static_cast<usize>(X.rows());
    const auto y = random_vector(n, 1);
    for (int vs = 1; vs <= 32; vs *= 2) {
      for (bool texture : {true, false}) {
        kernels::SpmvOptions opts;
        opts.vector_size = vs;
        opts.texture_y = texture;
        const auto got = kernels::spmv_csr_vector(dev, X, y, opts);
        vgpu::MemCounters want;
        vgpu::MemTracker mem(want);
        const bool resident =
            texture && kernels::tex_resident(spec, n * sizeof(real));
        if (resident) kernels::charge_tex_fill(mem, spec, n * sizeof(real));
        for_each_warp(X, vs, [&](long long first, int rows) {
          mem.load_contiguous(static_cast<std::uint64_t>(first), rows + 1,
                              sizeof(offset_t));
          recount_data(mem, X, first, rows, vs, vgpu::MemPath::kDram);
          if (!resident) {
            recount_pass(mem, X, first, rows, vs, sizeof(real), true,
                         texture ? vgpu::MemPath::kTexture
                                 : vgpu::MemPath::kDram);
          }
          mem.store_contiguous(static_cast<std::uint64_t>(first), rows,
                               sizeof(real));
          recount_row_products(want, X, first, rows, vs, 2);
        });
        expect_counters_eq(want, got.counters,
                           name + " spmv_csr_vector vs=" +
                               std::to_string(vs) +
                               (texture ? " tex" : " no-tex"));
      }
    }

    // The templates pick VS by Eq. 4 and always bind gathers to texture.
    const int vs = kernels::vector_size_for(X.mean_nnz_per_row());
    const auto ext = random_vector(m, 2);
    const auto u = random_vector(m, 3);
    const auto z = random_vector(n, 4);
    // `lane_flops` per lane step; `row_flops` more per row for an epilogue.
    const auto per_row = [&](bool gathers, int extra_row_loads,
                             usize resident_bytes, std::uint64_t lane_flops,
                             std::uint64_t row_flops) {
      vgpu::MemCounters want;
      vgpu::MemTracker mem(want);
      const bool resident = kernels::tex_resident(spec, resident_bytes);
      if (resident) kernels::charge_tex_fill(mem, spec, resident_bytes);
      for_each_warp(X, vs, [&](long long first, int rows) {
        const auto row0 = static_cast<std::uint64_t>(first);
        mem.load_contiguous(row0, rows + 1, sizeof(offset_t));
        recount_data(mem, X, first, rows, vs, vgpu::MemPath::kDram);
        for (int g = 0; g < (resident ? 0 : (gathers ? 2 : 1)); ++g) {
          recount_pass(mem, X, first, rows, vs, sizeof(real), true,
                       vgpu::MemPath::kTexture);
        }
        for (int e = 0; e < extra_row_loads; ++e) {
          mem.load_contiguous(row0, rows, sizeof(real));
        }
        mem.store_contiguous(row0, rows, sizeof(real));
        recount_row_products(want, X, first, rows, vs, lane_flops);
        want.flops += row_flops * static_cast<std::uint64_t>(rows);
      });
      return want;
    };
    const auto masked = kernels::dev_masked_spmv(dev, X, X.values(), y);
    expect_counters_eq(per_row(false, 0, n * sizeof(real), 2, 0),
                       masked.counters, name + " masked_spmv");
    kernels::EwiseProgram program;
    program.num_inputs = 2;
    kernels::EwiseStep mul;
    mul.op = kernels::EwiseOp::kMul;
    mul.a = 0;
    mul.b = 1;
    program.steps.push_back(mul);
    const std::span<const real> ext_span(ext);
    const auto row =
        kernels::dev_fused_row(dev, X, y, program, {&ext_span, 1});
    // The epilogue ext * product is one multiply per row.
    expect_counters_eq(per_row(false, 1, n * sizeof(real), 2, 1),
                       row.counters, name + " fused_row");
    const auto sddmm = kernels::dev_fused_sddmm(
        dev, X, u, y, z, [](real x) { return x * x; });
    // Per nonzero: two multiplies, the map (four) and a multiply-add.
    expect_counters_eq(per_row(true, 1, 2 * n * sizeof(real), 7, 0),
                       sddmm.counters, name + " fused_sddmm");
  }
}

TEST(SparseWarpCounters, TransposedProductsMatchAnAccessByAccessRecount) {
  vgpu::Device dev;
  const auto& spec = dev.spec();
  for (const auto& [name, X] : sweep_cases()) {
    const auto n = static_cast<usize>(X.cols());
    const auto m = static_cast<usize>(X.rows());
    const auto p = random_vector(m, 5);
    const auto y = random_vector(n, 6);
    const auto z = random_vector(n, 7);
    const double mu = X.mean_nnz_per_row();
    for (int vs = 1; vs <= 32; vs *= 2) {
      const std::string at = name + " vs=" + std::to_string(vs);
      {
        kernels::SpmvOptions opts;
        opts.vector_size = vs;
        const auto got = kernels::spmv_t_atomic_scatter(dev, X, p, opts);
        vgpu::MemCounters want;
        vgpu::MemTracker mem(want);
        for_each_warp(X, vs, [&](long long first, int rows) {
          const auto row0 = static_cast<std::uint64_t>(first);
          mem.load_contiguous(row0, rows + 1, sizeof(offset_t));
          mem.load_contiguous(row0, rows, sizeof(real));
          recount_data(mem, X, first, rows, vs, vgpu::MemPath::kDram);
          for_each_lane_step(X, first, rows, vs,
                             [&](index_t, offset_t k0, int lanes) {
            mem.add_flops(static_cast<std::uint64_t>(lanes));
            recount_scatter_step(mem, X, k0, lanes, false, 0, spec.smem_banks);
          });
        });
        expect_counters_eq(want, got.counters, at + " spmv_t_atomic_scatter");
      }
      for (auto aggregation :
           {tuner::Aggregation::kShared, tuner::Aggregation::kGlobal}) {
        if (aggregation == tuner::Aggregation::kShared &&
            !tuner::shared_aggregation_feasible(spec, X.cols(), vs)) {
          continue;
        }
        kernels::FusedSparseOptions opts;
        opts.vector_size = vs;
        opts.aggregation = aggregation;
        const std::string agg =
            aggregation == tuner::Aggregation::kShared ? " shared" : " global";
        // The launch shape: the shared staging area's base word and the
        // number of blocks that aggregate.
        const auto shape = kernels::fused_sparse_params(dev, X, opts);
        const bool shared = shape.shared_aggregation;
        const auto nv =
            static_cast<usize>(shape.config.num_vectors_per_block());
        {
          const auto got = kernels::fused_spmv_t(dev, X, p, 1.5, opts);
          vgpu::MemCounters want;
          vgpu::MemTracker mem(want);
          for_each_warp(X, vs, [&](long long first, int rows) {
            const auto row0 = static_cast<std::uint64_t>(first);
            mem.load_contiguous(row0, rows + 1, sizeof(offset_t));
            mem.load_contiguous(row0, rows, sizeof(real));
            recount_data(mem, X, first, rows, vs, vgpu::MemPath::kDram);
            for_each_lane_step(X, first, rows, vs,
                               [&](index_t, offset_t k0, int lanes) {
              mem.add_flops(static_cast<std::uint64_t>(lanes));
              recount_scatter_step(mem, X, k0, lanes, shared, nv,
                                   spec.smem_banks);
            });
          });
          if (shared) {
            recount_block_aggregation(mem, shape.config.grid_size, n, 0);
          }
          expect_counters_eq(want, got.counters, at + agg + " fused_spmv_t");
        }
        for (bool texture : {true, false}) {
          opts.texture_y = texture;
          const auto got =
              kernels::fused_pattern_sparse(dev, 0.5, X, p, y, 2.0, z, opts);
          // §3's L2 condition for the second pass, from the launch's
          // occupancy.
          const auto params = kernels::fused_sparse_params(dev, X, opts);
          const double active_vectors =
              static_cast<double>(params.occupancy.active_threads_per_sm) /
              vs * spec.num_sms;
          const vgpu::MemPath pass2 =
              active_vectors * mu * (sizeof(real) + sizeof(index_t)) <=
                      static_cast<double>(spec.l2_bytes)
                  ? vgpu::MemPath::kL2
                  : vgpu::MemPath::kDram;
          const bool resident =
              texture && kernels::tex_resident(spec, n * sizeof(real));
          vgpu::MemCounters want;
          vgpu::MemTracker mem(want);
          if (resident) {
            kernels::charge_tex_fill(mem, spec, n * sizeof(real));
          }
          for (usize i0 = 0; i0 < n; i0 += 32) {  // beta * z
            const auto lanes = static_cast<int>(std::min<usize>(32, n - i0));
            mem.load_contiguous(i0, lanes, sizeof(real));
            mem.atomic_global(static_cast<std::uint64_t>(lanes), n);
            mem.add_flops(static_cast<std::uint64_t>(lanes));
          }
          for_each_warp(X, vs, [&](long long first, int rows) {
            const auto row0 = static_cast<std::uint64_t>(first);
            mem.load_contiguous(row0, rows + 1, sizeof(offset_t));
            mem.load_contiguous(row0, rows, sizeof(real));  // v
            recount_data(mem, X, first, rows, vs, vgpu::MemPath::kDram);
            if (!resident) {
              recount_pass(mem, X, first, rows, vs, sizeof(real), true,
                           texture ? vgpu::MemPath::kTexture
                                   : vgpu::MemPath::kDram);
            }
            recount_data(mem, X, first, rows, vs, pass2);
            // First pass: the row product, then v[r] * p[r], one flop.
            recount_row_products(want, X, first, rows, vs, 2);
            mem.add_flops(static_cast<std::uint64_t>(rows));
            // Second pass: a multiply-add per lane and the scatter.
            for_each_lane_step(X, first, rows, vs,
                               [&](index_t, offset_t k0, int lanes) {
              mem.add_flops(2 * static_cast<std::uint64_t>(lanes));
              recount_scatter_step(mem, X, k0, lanes, shared, nv,
                                   spec.smem_banks);
            });
          });
          if (shared) {
            recount_block_aggregation(mem, shape.config.grid_size, n, 1);
          }
          expect_counters_eq(want, got.counters,
                             at + agg + (texture ? " tex" : " no-tex") +
                                 " fused_pattern_sparse");
        }
      }
    }
  }
}

// --- Dense warp accounting vs an access-by-access recount --------------------
//
// The dense row kernels (gemv_n, the dense masked product and the dense row
// and sddmm templates) give each row one warp. This test recounts every
// counter they charge with its own walk: each row's X stream and vector
// streams as successive 32-lane warp steps, one coalesced access per step,
// the per-row loads of length-m vectors, flops per row, one 31-shuffle
// reduction per row, and one coalesced store per block step of eight rows.

/// Loads of `count` doubles from element `first` by successive 32-lane warp
/// steps, one warp access per step.
void recount_stream(vgpu::MemTracker& mem, std::uint64_t first, usize count,
                    vgpu::MemPath path) {
  for (usize c = 0; c < count; c += 32) {
    mem.load_contiguous(first + c,
                        static_cast<int>(std::min<usize>(32, count - c)),
                        sizeof(real), path);
  }
}

TEST(DenseWarpCounters, RowProductsMatchAnAccessByAccessRecount) {
  vgpu::Device dev;
  const auto& spec = dev.spec();
  // 256-thread blocks: eight warps, one row each, store their rows together.
  constexpr long long kRowsPerStep = 256 / 32;
  const auto occ = vgpu::compute_occupancy(
      spec, 256, {kernels::kGemvRegsPerThread, 32 * sizeof(real)});
  const long long grid_stride_rows =
      static_cast<long long>(occ.blocks_per_sm) * spec.num_sms * kRowsPerStep;
  struct Shape {
    std::string name;
    index_t m, n;
  };
  // A shape taller than a grid stride with a partial last step; one whose
  // v+z (but not y) is over the texture cache; one whose y is over it.
  const Shape shapes[] = {{"tall 2045x28", 2045, 28},
                          {"v+z over 37x3500", 37, 3500},
                          {"y over 13x6500", 13, 6500}};
  ASSERT_GT(shapes[0].m, grid_stride_rows);
  ASSERT_NE(shapes[0].m % kRowsPerStep, 0);
  for (const auto& [name, m, n] : shapes) {
    const auto X = la::dense_random(m, n, 77);
    const auto nu = static_cast<usize>(n);
    const auto y = random_vector(nu, 1);
    const auto u = random_vector(static_cast<usize>(m), 2);
    const auto z = random_vector(nu, 3);
    const auto e1 = random_vector(static_cast<usize>(m), 4);
    const auto e2 = random_vector(static_cast<usize>(m), 5);
    // Counters of one launch: the fill of `resident_bytes` when they fit
    // the texture cache, then per row row_loads(mem, r, resident),
    // `row_flops` and a warp reduction, then the per-step output stores.
    const auto recount = [&](usize resident_bytes, std::uint64_t row_flops,
                             const auto& row_loads) {
      vgpu::MemCounters want;
      vgpu::MemTracker mem(want);
      const bool resident = kernels::tex_resident(spec, resident_bytes);
      if (resident) kernels::charge_tex_fill(mem, spec, resident_bytes);
      for (long long r = 0; r < m; ++r) {
        row_loads(mem, static_cast<std::uint64_t>(r), resident);
        mem.add_flops(row_flops);
        want.shuffle_ops += reduce_shuffles(32);
      }
      for (long long first = 0; first < m; first += kRowsPerStep) {
        mem.store_contiguous(
            static_cast<std::uint64_t>(first),
            static_cast<int>(std::min<long long>(kRowsPerStep, m - first)),
            sizeof(real));
      }
      return want;
    };
    // X's row streamed `passes` times, then `vectors` length-n streams on
    // the texture path unless resident.
    const auto row_streams = [&](int passes, int vectors) {
      return [&, passes, vectors](vgpu::MemTracker& mem, std::uint64_t r,
                                  bool resident) {
        for (int p = 0; p < passes; ++p) {
          recount_stream(mem, r * nu, nu, vgpu::MemPath::kDram);
        }
        for (int v = 0; !resident && v < vectors; ++v) {
          recount_stream(mem, 0, nu, vgpu::MemPath::kTexture);
        }
      };
    };
    const usize y_bytes = nu * sizeof(real);

    for (const int inflation : {1, 2}) {
      const auto got = kernels::gemv_n(
          dev, X, y,
          inflation == 1 ? kernels::BaselineLibrary::kBidmat
                         : kernels::BaselineLibrary::kVendor);
      expect_counters_eq(recount(y_bytes, 2 * nu, row_streams(inflation, 1)),
                         got.counters,
                         name + " gemv_n inflation " +
                             std::to_string(inflation));
    }

    const auto masked = kernels::dev_masked_gemv(dev, X, X.data(), y);
    expect_counters_eq(recount(y_bytes, 2 * nu, row_streams(1, 1)),
                       masked.counters, name + " masked_gemv");

    // Epilogues: 2 * product (one flop), and product * e1 + e2 (two).
    const auto step = [](kernels::EwiseOp op, int a, int b) {
      kernels::EwiseStep s;
      s.op = op;
      s.a = a;
      s.b = b;
      s.scalar = 2;
      return s;
    };
    kernels::EwiseProgram scale;
    scale.num_inputs = 1;
    scale.steps.push_back(step(kernels::EwiseOp::kScale, 0, -1));
    kernels::EwiseProgram mul_add;
    mul_add.num_inputs = 3;
    mul_add.steps.push_back(step(kernels::EwiseOp::kMul, 0, 1));
    mul_add.steps.push_back(step(kernels::EwiseOp::kAdd, 3, 2));
    const std::span<const real> ext[] = {e1, e2};
    for (const auto& [program, ext_count, epilogue_flops] :
         {std::tuple{&scale, usize{0}, std::uint64_t{1}},
          std::tuple{&mul_add, usize{2}, std::uint64_t{2}}}) {
      const auto got = kernels::dev_fused_row(
          dev, X, y, *program, std::span(ext).first(ext_count));
      const auto loads = [&, ext_count](vgpu::MemTracker& mem,
                                        std::uint64_t r, bool resident) {
        row_streams(1, 1)(mem, r, resident);
        for (usize e = 0; e < ext_count; ++e) {
          mem.load_contiguous(r, 1, sizeof(real));
        }
      };
      expect_counters_eq(recount(y_bytes, 2 * nu + epilogue_flops, loads),
                         got.counters,
                         name + " fused_row, " + std::to_string(ext_count) +
                             " external inputs");
    }

    // Per element: two multiplies, the map (four) and a multiply-add; v and
    // z share the texture cache.
    const auto sddmm = kernels::dev_fused_sddmm(
        dev, X, u, y, z, [](real x) { return x * x; });
    const auto sddmm_loads = [&](vgpu::MemTracker& mem, std::uint64_t r,
                                 bool resident) {
      recount_stream(mem, r * nu, nu, vgpu::MemPath::kDram);
      mem.load_contiguous(r, 1, sizeof(real));  // u[r]
      row_streams(0, 2)(mem, r, resident);
    };
    expect_counters_eq(recount(2 * y_bytes, 7 * nu, sddmm_loads),
                       sddmm.counters, name + " fused_sddmm");
  }
}

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
