// Unit tests for the virtual GPU: coalescing model, occupancy calculator,
// shared-memory bank accounting, warp reductions, cost model, and the
// block executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "vgpu/coalescing.h"
#include "vgpu/cost_model.h"
#include "vgpu/device.h"
#include "vgpu/occupancy.h"
#include "vgpu/shared_memory.h"
#include "vgpu/warp.h"

namespace fusedml::vgpu {
namespace {

// --- Coalescing ------------------------------------------------------------

TEST(Coalescing, AlignedContiguousDoubles) {
  // 32 lanes * 8 bytes = 256 bytes = exactly 2 segments when aligned.
  EXPECT_EQ(contiguous_transactions(0, 32, 8), 2u);
  // 16 lanes * 8B = 128B = 1 segment.
  EXPECT_EQ(contiguous_transactions(0, 16, 8), 1u);
}

TEST(Coalescing, MisalignedContiguousStraddles) {
  // Starting mid-segment adds one transaction.
  EXPECT_EQ(contiguous_transactions(64, 32, 8), 3u);
}

TEST(Coalescing, SingleLane) {
  EXPECT_EQ(contiguous_transactions(1000, 1, 8), 1u);
  EXPECT_EQ(contiguous_transactions(0, 0, 8), 0u);
}

TEST(Coalescing, GatherDeduplicatesSegments) {
  // All lanes hit the same segment -> 1 transaction (hardware broadcast).
  std::vector<std::uint64_t> same(32, 40);
  EXPECT_EQ(gather_transactions(same), 1u);
  // Each lane a different segment -> 32 transactions.
  std::vector<std::uint64_t> scattered(32);
  for (usize i = 0; i < 32; ++i) scattered[i] = i * 128;
  EXPECT_EQ(gather_transactions(scattered), 32u);
}

TEST(Coalescing, GatherRejectsOversizedWarp) {
  std::vector<std::uint64_t> too_many(33, 0);
  EXPECT_THROW(gather_transactions(too_many), Error);
}

// --- Occupancy -------------------------------------------------------------

TEST(Occupancy, UnconstrainedKernelHitsBlockLimit) {
  const auto spec = gtx_titan();
  const auto occ = compute_occupancy(spec, 256, {16, 0});
  // 8 blocks x 8 warps = 64 warps = full occupancy.
  EXPECT_EQ(occ.blocks_per_sm, 8);
  EXPECT_DOUBLE_EQ(occ.occupancy, 1.0);
}

TEST(Occupancy, RegisterLimited) {
  const auto spec = gtx_titan();
  // 128 regs/thread, 256 threads: 128*32 = 4096 regs/warp, x8 warps = 32K
  // per block -> only 2 blocks fit in 64K.
  const auto occ = compute_occupancy(spec, 256, {128, 0});
  EXPECT_EQ(occ.blocks_per_sm, 2);
  EXPECT_EQ(occ.limiter, OccupancyResult::Limiter::kRegisters);
}

TEST(Occupancy, SharedMemoryLimited) {
  const auto spec = gtx_titan();
  // 20 KB per block -> 2 blocks in 48 KB.
  const auto occ = compute_occupancy(spec, 128, {16, 20 * 1024});
  EXPECT_EQ(occ.blocks_per_sm, 2);
  EXPECT_EQ(occ.limiter, OccupancyResult::Limiter::kSharedMemory);
}

TEST(Occupancy, WarpLimited) {
  const auto spec = gtx_titan();
  // 1024-thread blocks: 32 warps each, only 2 fit in 64 warps.
  const auto occ = compute_occupancy(spec, 1024, {16, 0});
  EXPECT_EQ(occ.blocks_per_sm, 2);
  EXPECT_EQ(occ.active_warps_per_sm, 64);
}

TEST(Occupancy, ImpossibleLaunches) {
  const auto spec = gtx_titan();
  EXPECT_EQ(compute_occupancy(spec, 2048, {16, 0}).blocks_per_sm, 0);
  EXPECT_EQ(compute_occupancy(spec, 256, {300, 0}).blocks_per_sm, 0);
  EXPECT_EQ(compute_occupancy(spec, 256, {16, 1 << 20}).blocks_per_sm, 0);
  EXPECT_EQ(compute_occupancy(spec, 0, {16, 0}).limiter,
            OccupancyResult::Limiter::kInvalid);
}

TEST(Occupancy, OccupancyNeverExceedsOne) {
  const auto spec = gtx_titan();
  for (int bs = 32; bs <= 1024; bs += 32) {
    for (int regs : {16, 32, 64, 128, 255}) {
      const auto occ = compute_occupancy(spec, bs, {regs, 0});
      EXPECT_LE(occ.occupancy, 1.0);
      EXPECT_GE(occ.occupancy, 0.0);
    }
  }
}

TEST(Occupancy, BestBlockSizePrefersLargerOnTies) {
  const auto spec = gtx_titan();
  const int bs = best_block_size(spec, {32, 0});
  const auto occ = compute_occupancy(spec, bs, {32, 0});
  // Must achieve the maximum achievable warps for these resources.
  for (int other = 32; other <= 1024; other += 32) {
    const auto o = compute_occupancy(spec, other, {32, 0});
    EXPECT_LE(o.active_warps_per_sm, occ.active_warps_per_sm);
  }
}

TEST(Occupancy, SmallDeviceDiffersFromTitan) {
  const auto occ_small = compute_occupancy(small_kepler(), 256, {43, 8192});
  const auto occ_titan = compute_occupancy(gtx_titan(), 256, {43, 8192});
  EXPECT_LT(occ_small.active_warps_per_sm, occ_titan.active_warps_per_sm);
}

// --- Shared memory ----------------------------------------------------------

TEST(SharedMemory, LoadStoreAtomic) {
  MemCounters c;
  SharedMemory sm(64, 32, c);
  sm.store(3, 1.5);
  sm.atomic_add(3, 2.0);
  EXPECT_DOUBLE_EQ(sm.load(3), 3.5);
  EXPECT_EQ(c.smem_accesses, 3u);
  EXPECT_EQ(c.atomic_shared_ops, 1u);
}

TEST(SharedMemory, OutOfBoundsThrows) {
  MemCounters c;
  SharedMemory sm(8, 32, c);
  EXPECT_THROW(sm.load(8), Error);
  EXPECT_THROW(sm.store(100, 1.0), Error);
  EXPECT_THROW(sm.atomic_add(8, 1.0), Error);
  // One lane past the end fails the whole warp access.
  const std::vector<usize> last_lane_out = {0, 1, 7, 8};
  EXPECT_THROW(sm.warp_access(last_lane_out), Error);
  const std::vector<usize> in_bounds = {0, 1, 7};
  EXPECT_EQ(sm.warp_access(in_bounds), 1);
}

TEST(SharedMemory, RejectsBankCountsOutsideTheBankModel) {
  MemCounters c;
  // The bank model tracks at most 32 banks; more would index past its
  // per-bank state.
  for (int banks : {0, -4, 33, 64}) {
    try {
      SharedMemory sm(64, banks, c);
      ADD_FAILURE() << banks << " banks accepted";
    } catch (const Error& e) {
      const std::string named = "bank count " + std::to_string(banks) + " ";
      EXPECT_NE(std::string(e.what()).find(named), std::string::npos)
          << e.what();
    }
  }
  for (int banks : {1, 16, 32}) EXPECT_NO_THROW(SharedMemory(64, banks, c));
}

TEST(SharedMemory, ConflictFreeWarpAccess) {
  MemCounters c;
  SharedMemory sm(64, 32, c);
  std::vector<usize> addrs(32);
  std::iota(addrs.begin(), addrs.end(), 0);  // each lane its own bank
  EXPECT_EQ(sm.warp_access(addrs), 1);
  EXPECT_EQ(c.smem_bank_conflicts, 0u);
}

TEST(SharedMemory, SameWordBroadcastsFree) {
  MemCounters c;
  SharedMemory sm(64, 32, c);
  std::vector<usize> addrs(32, 5);  // all lanes read word 5
  EXPECT_EQ(sm.warp_access(addrs), 1);
  EXPECT_EQ(c.smem_bank_conflicts, 0u);
}

TEST(SharedMemory, StridedAccessConflicts) {
  MemCounters c;
  SharedMemory sm(1024, 32, c);
  // Stride 32: every lane maps to bank 0, different words -> 32 passes.
  std::vector<usize> addrs(32);
  for (usize i = 0; i < 32; ++i) addrs[i] = i * 32;
  EXPECT_EQ(sm.warp_access(addrs), 32);
  EXPECT_EQ(c.smem_bank_conflicts, 31u);
}

TEST(SharedMemory, RepeatedLaterWordBroadcasts) {
  MemCounters c;
  SharedMemory sm(64, 32, c);
  // Bank 0 receives two distinct words; the third lane repeats the second
  // word and shares its access -> 2 passes, 1 conflict.
  const std::vector<usize> addrs = {0, 32, 32};
  EXPECT_EQ(sm.warp_access(addrs), 2);
  EXPECT_EQ(c.smem_bank_conflicts, 1u);
  EXPECT_EQ(c.smem_accesses, 3u);
}

TEST(SharedMemory, NonPowerOfTwoBankCountMapsByModulo) {
  MemCounters c;
  SharedMemory sm(64, 24, c);
  // On 24 banks, words 0, 24 and 48 share bank 0 (24 repeats) and word 8
  // has bank 8 to itself -> 3 passes. A mask of 23 would put 8 with 0 and
  // 24 with 48 (2 passes).
  const std::vector<usize> addrs = {0, 24, 24, 48, 8};
  EXPECT_EQ(sm.warp_access(addrs), 3);
  EXPECT_EQ(c.smem_bank_conflicts, 2u);
}

TEST(SharedMemory, WarpAccessChargesMostDistinctWordsInOneBank) {
  // Random lane words against a plain per-bank set of distinct words.
  std::mt19937 rng(2024);
  for (int trial = 0; trial < 2000; ++trial) {
    const int banks = 1 + static_cast<int>(rng() % 32);
    const usize lanes = rng() % 33;
    const usize span = 1 + rng() % 256;  // small spans force repeats
    std::vector<usize> addrs(lanes);
    for (usize& a : addrs) a = rng() % span;
    std::map<usize, std::set<usize>> by_bank;
    for (const usize a : addrs) by_bank[a % static_cast<usize>(banks)].insert(a);
    int want = 1;
    for (const auto& [bank, words] : by_bank)
      want = std::max(want, static_cast<int>(words.size()));

    MemCounters c;
    SharedMemory sm(256, banks, c);
    ASSERT_EQ(sm.warp_access(addrs), want) << "banks " << banks;
    EXPECT_EQ(c.smem_bank_conflicts, static_cast<std::uint64_t>(want - 1));
    EXPECT_EQ(c.smem_accesses, lanes);
  }
}

// --- Warp primitives ---------------------------------------------------------

TEST(Warp, ShuffleReduceSums) {
  MemCounters c;
  std::vector<real> lanes = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_DOUBLE_EQ(shuffle_reduce_sum(lanes, c), 36.0);
  EXPECT_EQ(c.shuffle_ops, 7u);  // 4 + 2 + 1
}

TEST(Warp, SingleLaneIsIdentity) {
  MemCounters c;
  std::vector<real> one = {42.0};
  EXPECT_DOUBLE_EQ(shuffle_reduce_sum(one, c), 42.0);
  EXPECT_EQ(c.shuffle_ops, 0u);
}

TEST(Warp, RejectsNonPowerOfTwo) {
  MemCounters c;
  std::vector<real> bad(3, 1.0);
  EXPECT_THROW(shuffle_reduce_sum(bad, c), Error);
  std::vector<real> too_big(64, 1.0);
  EXPECT_THROW(shuffle_reduce_sum(too_big, c), Error);
}

// --- Cost model ---------------------------------------------------------------

TEST(CostModel, MoreTrafficCostsMore) {
  const CostModel model(gtx_titan());
  OccupancyResult occ;
  occ.occupancy = 1.0;
  MemCounters small, large;
  small.gld_transactions = 1000;
  large.gld_transactions = 100000;
  EXPECT_LT(model.kernel_time(small, occ).total_ms,
            model.kernel_time(large, occ).total_ms);
}

TEST(CostModel, LowOccupancyDegradesBandwidth) {
  const CostModel model(gtx_titan());
  MemCounters c;
  c.gld_transactions = 1'000'000;
  OccupancyResult high, low;
  high.occupancy = 1.0;
  low.occupancy = 0.05;
  EXPECT_GT(model.kernel_time(c, low).dram_ms,
            model.kernel_time(c, high).dram_ms);
}

TEST(CostModel, L2HitsCheaperThanDram) {
  const CostModel model(gtx_titan());
  OccupancyResult occ;
  occ.occupancy = 1.0;
  MemCounters dram, l2;
  dram.gld_transactions = 100000;
  l2.l2_hit_transactions = 100000;
  EXPECT_GT(model.kernel_time(dram, occ).total_ms,
            model.kernel_time(l2, occ).total_ms);
}

TEST(CostModel, ContendedAtomicsSerialize) {
  const CostModel model(gtx_titan());
  OccupancyResult occ;
  occ.occupancy = 1.0;
  MemCounters spread, contended;
  spread.atomic_global_ops = 1'000'000;
  spread.atomic_global_targets = 1'000'000;
  contended.atomic_global_ops = 1'000'000;
  contended.atomic_global_targets = 100;  // 10k ops per address
  EXPECT_GT(model.kernel_time(contended, occ).atomic_ms,
            model.kernel_time(spread, occ).atomic_ms);
}

TEST(CostModel, LaunchOverheadFloorsEmptyKernel) {
  const CostModel model(gtx_titan());
  OccupancyResult occ;
  occ.occupancy = 1.0;
  const auto t = model.kernel_time(MemCounters{}, occ);
  EXPECT_NEAR(t.total_ms, model.params().launch_overhead_us / 1e3, 1e-12);
}

TEST(CostModel, TransferMatchesPcieModel) {
  const CostModel model(gtx_titan());
  // ~5.3 GB (the KDD set) over the 6 GB/s effective link: ~890 ms, in the
  // ballpark of the paper's measured 939 ms.
  const double ms = model.transfer_ms(5'300'000'000ull);
  EXPECT_GT(ms, 700.0);
  EXPECT_LT(ms, 1100.0);
}

// --- Executor ------------------------------------------------------------------

TEST(Device, LaunchRunsEveryBlockOnce) {
  Device dev;
  LaunchConfig cfg;
  cfg.grid_size = 37;
  cfg.block_size = 64;
  std::vector<real> hits(37, 0);
  const auto stats = dev.launch(cfg, [&](BlockCtx& ctx) {
    atomic_add(hits[static_cast<usize>(ctx.block_id())], 1.0);
  });
  for (real h : hits) EXPECT_DOUBLE_EQ(h, 1.0);
  EXPECT_EQ(stats.config.grid_size, 37);
}

TEST(Device, CountersMergeAcrossBlocks) {
  Device dev;
  LaunchConfig cfg;
  cfg.grid_size = 4;
  cfg.block_size = 32;
  const auto stats = dev.launch(cfg, [&](BlockCtx& ctx) {
    ctx.mem().load_contiguous(0, 32, 8);
    ctx.mem().add_flops(10);
  });
  EXPECT_EQ(stats.counters.gld_transactions, 4u * 2u);
  EXPECT_EQ(stats.counters.flops, 40u);
}

TEST(Device, SharedMemoryIsPerBlock) {
  Device dev;
  LaunchConfig cfg;
  cfg.grid_size = 8;
  cfg.block_size = 32;
  cfg.smem_words = 4;
  dev.launch(cfg, [&](BlockCtx& ctx) {
    // Fresh (zeroed) shared memory in every block.
    EXPECT_DOUBLE_EQ(ctx.smem().load(0), 0.0);
    ctx.smem().store(0, static_cast<real>(ctx.block_id()));
  });
}

TEST(Device, SessionAccounting) {
  Device dev;
  dev.reset_session();
  LaunchConfig cfg;
  cfg.grid_size = 1;
  cfg.block_size = 32;
  dev.launch(cfg, [](BlockCtx&) {});
  dev.launch(cfg, [](BlockCtx&) {});
  dev.transfer_h2d_ms(1 << 20);
  EXPECT_EQ(dev.session_launches(), 2u);
  EXPECT_GT(dev.session_modeled_ms(), 0.0);
  EXPECT_GT(dev.session_transfer_ms(), 0.0);
  dev.reset_session();
  EXPECT_EQ(dev.session_launches(), 0u);
}

TEST(Device, RejectsBadConfigs) {
  Device dev;
  LaunchConfig cfg;
  cfg.grid_size = 1;
  cfg.block_size = 4096;  // above device limit
  EXPECT_THROW(dev.launch(cfg, [](BlockCtx&) {}), Error);
  cfg.block_size = 48;
  cfg.vector_size = 32;  // 48 % 32 != 0
  EXPECT_THROW(dev.launch(cfg, [](BlockCtx&) {}), Error);
}

}  // namespace
}  // namespace fusedml::vgpu
