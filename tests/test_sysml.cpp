// Tests for the mini SystemML runtime: memory-manager invariants (tasks a-e
// of §4.4), JNI bridge charging, scheduler placement, and the end-to-end
// LR-CG script.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "la/convert.h"
#include "la/generate.h"
#include "la/vector_ops.h"
#include "sysml/dag.h"
#include "sysml/expr.h"
#include "sysml/jni_bridge.h"
#include "ml/script_library.h"
#include "sysml/memory_manager.h"
#include "sysml/runtime.h"
#include "test_util.h"

namespace fusedml::sysml {
namespace {

using ml::GdConfig;
using ml::ScriptConfig;
using ml::run_logreg_gd_script;
using ml::run_lr_cg_script;

std::string tensor_name(long long id) {
  std::string name = "t";
  name += std::to_string(id);
  return name;
}

// --- Memory manager ----------------------------------------------------------

class MemoryManagerTest : public ::testing::Test {
 protected:
  vgpu::Device dev;
};

TEST_F(MemoryManagerTest, UploadOnceThenCached) {
  MemoryManager mm(dev, 1 << 20);
  mm.register_tensor(1, 1000, "x");
  EXPECT_GT(mm.ensure_on_device(1), 0.0);  // first: transfer
  EXPECT_DOUBLE_EQ(mm.ensure_on_device(1), 0.0);  // cached
  EXPECT_EQ(mm.stats().h2d_transfers, 1u);
  EXPECT_TRUE(mm.on_device(1));
}

TEST_F(MemoryManagerTest, CapacityNeverExceeded) {
  MemoryManager mm(dev, 1000);
  for (TensorId id = 1; id <= 10; ++id) {
    mm.register_tensor(id, 300, tensor_name(id));
    mm.ensure_on_device(id);
    EXPECT_LE(mm.device_bytes_in_use(), mm.capacity());
  }
  EXPECT_GT(mm.stats().evictions, 0u);
}

TEST_F(MemoryManagerTest, LruEvictionOrder) {
  MemoryManager mm(dev, 1000);
  mm.register_tensor(1, 400, "a");
  mm.register_tensor(2, 400, "b");
  mm.register_tensor(3, 400, "c");
  mm.ensure_on_device(1);
  mm.ensure_on_device(2);
  mm.ensure_on_device(1);  // touch a: b is now LRU
  mm.ensure_on_device(3);  // must evict b
  EXPECT_TRUE(mm.on_device(1));
  EXPECT_FALSE(mm.on_device(2));
  EXPECT_TRUE(mm.on_device(3));
}

TEST_F(MemoryManagerTest, DirtyVictimWrittenBackOnEviction) {
  MemoryManager mm(dev, 1000);
  mm.register_tensor(1, 600, "a");
  mm.register_tensor(2, 600, "b");
  mm.ensure_on_device(1);
  mm.mark_device_dirty(1);
  mm.ensure_on_device(2);  // evicts dirty a -> D2H write-back
  EXPECT_EQ(mm.stats().d2h_transfers, 1u);
  EXPECT_EQ(mm.residency(1), Residency::kHostOnly);
}

TEST_F(MemoryManagerTest, HostDirtyTriggersReupload) {
  MemoryManager mm(dev, 1 << 20);
  mm.register_tensor(1, 500, "x");
  mm.ensure_on_device(1);
  mm.mark_host_dirty(1);
  EXPECT_GT(mm.ensure_on_device(1), 0.0);  // refresh upload
  EXPECT_EQ(mm.stats().h2d_transfers, 2u);
}

TEST_F(MemoryManagerTest, EnsureOnHostSyncsDeviceDirty) {
  MemoryManager mm(dev, 1 << 20);
  mm.register_tensor(1, 500, "x");
  mm.ensure_on_device(1);
  mm.mark_device_dirty(1);
  EXPECT_GT(mm.ensure_on_host(1), 0.0);
  EXPECT_EQ(mm.residency(1), Residency::kSynced);
  EXPECT_DOUBLE_EQ(mm.ensure_on_host(1), 0.0);  // already synced
}

TEST_F(MemoryManagerTest, ReleaseMarksSlotForReuse) {
  MemoryManager mm(dev, 1 << 20);
  mm.register_tensor(1, 500, "x");
  mm.ensure_on_device(1);
  mm.release(1);
  EXPECT_FALSE(mm.on_device(1));
  mm.ensure_on_device(1);
  EXPECT_EQ(mm.stats().allocation_reuses, 1u);  // task (c)
}

TEST_F(MemoryManagerTest, AllocateOnDeviceSkipsUpload) {
  MemoryManager mm(dev, 1 << 20);
  mm.register_tensor(1, 500, "out");
  mm.allocate_on_device(1);
  EXPECT_TRUE(mm.on_device(1));
  EXPECT_EQ(mm.stats().h2d_transfers, 0u);
  EXPECT_EQ(mm.residency(1), Residency::kDeviceDirty);
}

TEST_F(MemoryManagerTest, OversizedTensorRoutedToStreaming) {
  // A tensor larger than device capacity registers fine but can never be
  // made resident; needs_streaming flags it for the out-of-core path.
  MemoryManager mm(dev, 1000);
  mm.register_tensor(1, 2000, "huge");
  EXPECT_TRUE(mm.needs_streaming(1));
  EXPECT_THROW(mm.ensure_on_device(1), DeviceOomError);
  EXPECT_THROW(mm.allocate_on_device(1), DeviceOomError);
  EXPECT_FALSE(mm.on_device(1));
  mm.note_streaming_fallback();
  EXPECT_EQ(mm.stats().streaming_fallbacks, 1u);

  mm.register_tensor(2, 500, "fits");
  EXPECT_FALSE(mm.needs_streaming(2));
  EXPECT_GT(mm.ensure_on_device(2), 0.0);
}

TEST_F(MemoryManagerTest, NeverResidentTensorIsSafeToReleaseAndSync) {
  MemoryManager mm(dev, 1000);
  mm.register_tensor(1, 400, "ghost");
  // Neither call may throw or charge transfers for a tensor that never
  // reached the device.
  EXPECT_DOUBLE_EQ(mm.release(1), 0.0);
  EXPECT_DOUBLE_EQ(mm.ensure_on_host(1), 0.0);
  EXPECT_EQ(mm.residency(1), Residency::kHostOnly);
  EXPECT_EQ(mm.stats().h2d_transfers, 0u);
  EXPECT_EQ(mm.stats().d2h_transfers, 0u);
}

TEST_F(MemoryManagerTest, ZeroHeadroomEvictsDeviceDirtyVictimWithWriteback) {
  // Capacity holds exactly one tensor: bringing in the second under zero
  // headroom must evict the first, writing it back because it is dirty.
  MemoryManager mm(dev, 500);
  mm.register_tensor(1, 500, "a");
  mm.register_tensor(2, 500, "b");
  mm.ensure_on_device(1);
  mm.mark_device_dirty(1);
  mm.ensure_on_device(2);
  EXPECT_FALSE(mm.on_device(1));
  EXPECT_TRUE(mm.on_device(2));
  EXPECT_EQ(mm.stats().evictions, 1u);
  EXPECT_EQ(mm.stats().d2h_transfers, 1u);  // dirty victim written back
  EXPECT_EQ(mm.residency(1), Residency::kHostOnly);
  EXPECT_LE(mm.device_bytes_in_use(), mm.capacity());
}

TEST_F(MemoryManagerTest, PeakTracksHighWater) {
  MemoryManager mm(dev, 2000);
  mm.register_tensor(1, 800, "a");
  mm.register_tensor(2, 800, "b");
  mm.ensure_on_device(1);
  mm.ensure_on_device(2);
  mm.release(1);
  EXPECT_EQ(mm.stats().peak_device_bytes, 1600u);
}

// --- JNI bridge ----------------------------------------------------------------

TEST(JniBridge, SparseCostsScaleWithSize) {
  JniBridge jni;
  const auto small = la::uniform_sparse(100, 50, 0.1, 601);
  const auto large = la::uniform_sparse(10000, 50, 0.1, 602);
  EXPECT_LT(jni.sparse_to_native(small).total_ms(),
            jni.sparse_to_native(large).total_ms());
}

TEST(JniBridge, SparseConversionSlowerThanDensePerByte) {
  JniBridge jni;
  const auto sp = la::uniform_sparse(2000, 1000, 0.5, 603);
  const auto dn = la::csr_to_dense(sp);
  const double sparse_per_byte =
      jni.sparse_to_native(sp).convert_ms / static_cast<double>(sp.bytes());
  const double dense_per_byte =
      jni.dense_to_native(dn).convert_ms / static_cast<double>(dn.bytes());
  EXPECT_GT(sparse_per_byte, dense_per_byte);
}

TEST(JniBridge, VectorChargeIsSmallButNonzero) {
  JniBridge jni;
  const auto c = jni.vector_to_native(1000);
  EXPECT_GT(c.total_ms(), 0.0);
  EXPECT_LT(c.total_ms(), 1.0);
}

// --- Runtime scheduling -----------------------------------------------------------

TEST(Runtime, GpuDisabledRunsEverythingOnCpu) {
  vgpu::Device dev;
  Runtime rt(dev, {.enable_gpu = false});
  const auto X = la::uniform_sparse(500, 100, 0.05, 611);
  const auto Xid = rt.add_sparse(X, "X");
  const auto yid = rt.add_vector(la::random_vector(100, 1), "y");
  rt.op_pattern(1, Xid, 0, yid, 0, 0);
  EXPECT_EQ(rt.stats().gpu_ops, 0u);
  EXPECT_GT(rt.stats().cpu_ops, 0u);
  EXPECT_DOUBLE_EQ(rt.stats().jni_ms, 0.0);
}

TEST(Runtime, BigPatternGoesToGpu) {
  vgpu::Device dev;
  Runtime rt(dev, {});
  const auto X = la::uniform_sparse(20000, 500, 0.05, 612);
  const auto Xid = rt.add_sparse(X, "X");
  const auto yid = rt.add_vector(la::random_vector(500, 2), "y");
  rt.op_pattern(1, Xid, 0, yid, 0, 0);
  rt.op_pattern(1, Xid, 0, yid, 0, 0);  // second op reuses the device copy
  EXPECT_EQ(rt.stats().gpu_ops, 2u);
  EXPECT_GT(rt.stats().jni_ms, 0.0);
  // X uploaded once only.
  EXPECT_LE(rt.memory_stats().h2d_transfers, 3u);  // X + y (+ nothing else)
}

TEST(Runtime, ResultsMatchReferenceEitherWay) {
  vgpu::Device dev;
  const auto X = la::uniform_sparse(800, 120, 0.05, 613);
  const auto y = la::random_vector(120, 3);
  const auto expect = la::reference::pattern(1, X, {}, y, 0, {});
  for (bool gpu : {true, false}) {
    Runtime rt(dev, {.enable_gpu = gpu});
    const auto Xid = rt.add_sparse(X, "X");
    const auto yid = rt.add_vector(y, "y");
    const auto out = rt.op_pattern(1, Xid, 0, yid, 0, 0);
    test::expect_vectors_near(expect, rt.read_vector(out));
  }
}

TEST(Runtime, Blas1OnHostDataStaysOnCpu) {
  vgpu::Device dev;
  Runtime rt(dev, {});
  // Small vectors: PCIe round trip dwarfs the op; scheduler must pick CPU.
  const auto a = rt.add_vector(la::random_vector(100, 4), "a");
  const auto b = rt.add_vector(la::random_vector(100, 5), "b");
  rt.op_dot(a, b);
  EXPECT_EQ(rt.stats().gpu_ops, 0u);
  EXPECT_EQ(rt.stats().cpu_ops, 1u);
}

// --- Tensor lifetime ----------------------------------------------------------

TEST(Runtime, DiscardDropsADeviceDirtyTensorWithoutAWriteBack) {
  vgpu::Device dev;
  Runtime rt(dev, {.gpu_cost_bias = 1e-4});
  const auto X = la::uniform_sparse(2000, 100, 0.05, 614);
  const auto Xid = rt.add_sparse(X, "X");
  const auto yid = rt.add_vector(la::random_vector(100, 6), "y");
  // Born on the device and never read back: the device copy is the only
  // current one.
  const auto pid = rt.op_product(Xid, yid);
  ASSERT_EQ(rt.stats().gpu_ops, 1u);
  ASSERT_EQ(rt.live_tensors(), 3u);

  const auto d2h = rt.memory_stats().d2h_transfers;
  const double total_ms = rt.stats().total_ms();
  const usize device_bytes = rt.device_bytes_in_use();
  rt.discard(pid);
  EXPECT_EQ(rt.memory_stats().d2h_transfers, d2h);
  EXPECT_EQ(rt.stats().total_ms(), total_ms);
  EXPECT_EQ(rt.device_bytes_in_use(),
            device_bytes - static_cast<usize>(X.rows()) * sizeof(real));
  EXPECT_EQ(rt.live_tensors(), 2u);

  EXPECT_THROW(rt.read_vector(pid), Error);
  EXPECT_THROW(rt.discard(pid), Error);
  EXPECT_THROW(rt.discard(9999), Error);
}

TEST(TensorLifetime, ExecuteKeepsOnlyLeavesAndTheRoot) {
  vgpu::Device dev;
  Runtime rt(dev, {.gpu_cost_bias = 1e-4});
  const auto X = la::uniform_sparse(300, 40, 0.1, 615);
  const auto Xid = rt.add_sparse(X, "X");
  const auto vid = rt.add_vector(la::random_vector(300, 7), "v");
  const auto yid = rt.add_vector(la::random_vector(40, 8), "y");
  const auto zid = rt.add_vector(la::random_vector(40, 9), "z");
  // Unfused Equation 1: mv, ewise_mul, mvt, two scales and an add, each a
  // tensor of its own.
  const auto root = pattern_expression(
      real{0.5}, input_matrix(Xid), input_vector(vid), input_vector(yid),
      real{2}, input_vector(zid));
  const auto expect =
      la::reference::pattern(0.5, X, la::random_vector(300, 7),
                             la::random_vector(40, 8), 2,
                             la::random_vector(40, 9));
  for (int run = 0; run < 3; ++run) {
    const auto out = execute(rt, root);
    EXPECT_EQ(rt.live_tensors(), 5u + static_cast<usize>(run));
    test::expect_vectors_near(expect, rt.read_vector(out));
  }
  // Leaves survive every execution.
  EXPECT_EQ(rt.tensor_info(Xid).rows, 300);
  EXPECT_EQ(rt.read_vector(zid).size(), 40u);
}

// --- End-to-end script (Table 6 shape) -----------------------------------------------

TEST(Script, WeightsMatchDirectSolver) {
  vgpu::Device dev;
  const auto X = la::uniform_sparse(1500, 80, 0.05, 621);
  const auto y = la::regression_labels(X, 621, 0.05);
  ScriptConfig cfg;
  cfg.max_iterations = 30;

  Runtime rt(dev, {});
  const auto script = run_lr_cg_script(rt, X, y, PlanMode::kHardcodedPass, cfg);

  // Every op on the fused device backend: the op stream the imperative
  // solver issued.
  vgpu::Device direct_dev;
  Runtime direct_rt(direct_dev, {.gpu_cost_bias = 1e-4});
  const auto direct =
      run_lr_cg_script(direct_rt, X, y, PlanMode::kPlanner, cfg);

  EXPECT_EQ(script.iterations, direct.iterations);
  test::expect_vectors_near(direct.weights, script.weights, 1e-6);
}

TEST(Script, GpuBeatsCpuButLessThanKernelAlone) {
  vgpu::Device dev;
  // Large enough — and iterated long enough — that the one-time JNI
  // conversion and upload amortize (the paper's KDD run does 100
  // iterations); tolerance 0 pins the iteration count.
  const auto X = la::uniform_sparse(60000, 500, 0.02, 622);
  const auto y = la::regression_labels(X, 622, 0.1);
  ScriptConfig cfg;
  cfg.max_iterations = 60;
  cfg.tolerance = 0;

  Runtime gpu_rt(dev, {.enable_gpu = true});
  const auto gpu = run_lr_cg_script(gpu_rt, X, y, PlanMode::kHardcodedPass, cfg);
  Runtime cpu_rt(dev, {.enable_gpu = false});
  const auto cpu = run_lr_cg_script(cpu_rt, X, y, PlanMode::kHardcodedPass, cfg);

  const double total_speedup = cpu.end_to_end_ms / gpu.end_to_end_ms;
  EXPECT_GT(total_speedup, 1.0) << "GPU-enabled runtime must win";

  const double kernel_speedup = gpu.runtime_stats.pattern_cpu_equiv_ms /
                                gpu.runtime_stats.pattern_gpu_ms;
  // Table 6's signature: the fused-kernel-only speedup exceeds the
  // end-to-end speedup (JNI + transfers + CPU-resident BLAS-1 eat the rest).
  EXPECT_GT(kernel_speedup, total_speedup);
}

TEST(Script, TracksMemoryAndJniOverheads) {
  vgpu::Device dev;
  const auto X = la::uniform_sparse(20000, 300, 0.02, 623);
  const auto y = la::regression_labels(X, 623, 0.1);
  Runtime rt(dev, {});
  const auto r = run_lr_cg_script(rt, X, y, PlanMode::kHardcodedPass,
                                  {.max_iterations = 10});
  EXPECT_GT(r.runtime_stats.jni_ms, 0.0);
  EXPECT_GT(r.runtime_stats.transfer_ms, 0.0);
  EXPECT_GT(r.memory_stats.h2d_bytes, X.bytes() - 1);
  EXPECT_GE(r.iterations, 1);
  EXPECT_LE(r.iterations, 10);
}

TEST(Runtime, OpMapAppliesFunction) {
  vgpu::Device dev;
  Runtime rt(dev, {});
  const auto x = rt.add_vector({-2.0, 0.0, 3.5}, "x");
  const auto y = rt.op_map(x, [](real t) { return t * t; }, "square");
  const auto view = rt.read_vector(y);
  EXPECT_DOUBLE_EQ(view[0], 4.0);
  EXPECT_DOUBLE_EQ(view[1], 0.0);
  EXPECT_DOUBLE_EQ(view[2], 12.25);
}

TEST(Runtime, TraceRecordsOpsAndPlacement) {
  vgpu::Device dev;
  Runtime rt(dev, {.enable_gpu = false});
  const auto X = la::uniform_sparse(200, 50, 0.1, 631);
  const auto Xid = rt.add_sparse(X, "X");
  const auto yid = rt.add_vector(la::random_vector(50, 1), "y");
  rt.op_pattern(1, Xid, 0, yid, 0, 0);
  rt.op_product(Xid, rt.op_transposed_product(Xid,
      rt.add_vector(la::random_vector(200, 2), "p")));
  ASSERT_GE(rt.trace().size(), 3u);
  for (const auto& entry : rt.trace()) {
    EXPECT_FALSE(entry.on_gpu) << "GPU disabled: everything on CPU";
    EXPECT_GT(entry.modeled_ms, 0.0);
    EXPECT_FALSE(entry.op.empty());
  }
  EXPECT_EQ(rt.trace()[0].op, "pattern");
}

TEST(Program, PlanCacheKeysMinBenefitExactly) {
  // Thresholds that agree to six significant digits still plan separately:
  // the cache key compares every planner option exactly.
  vgpu::Device dev;
  Runtime rt(dev, {});
  ExprBuilder b;
  const auto X = b.matrix("X");
  const auto y = b.vector("y");
  b.output("p", ExprBuilder::spmv_t(X, ExprBuilder::spmv(X, y)));
  Program prog = b.build();
  prog.bind("X", rt.add_sparse(la::uniform_sparse(200, 50, 0.1, 77), "X"));
  prog.bind("y", rt.add_vector(la::random_vector(50, 78), "y"));
  for (const double min_benefit : {1e-7, 1.0000001e-7, 2e-7}) {
    PlannerOptions opts;
    opts.min_benefit_ms = min_benefit;
    rt.set_planner_options(opts);
    prog.prepare(rt, PlanMode::kPlanner);
  }
  EXPECT_EQ(prog.plans_built(), 3);
  EXPECT_EQ(prog.plan_cache_hits(), 0);
}

TEST(Script, LogRegGradientDescentLearns) {
  vgpu::Device dev;
  const auto X = la::uniform_sparse(1500, 40, 0.2, 641);
  const auto y = la::classification_labels(X, 641, 0.0);

  Runtime rt(dev, {});
  GdConfig cfg;
  cfg.iterations = 80;
  cfg.step = 0.8;
  const auto r = run_logreg_gd_script(rt, X, y, PlanMode::kUnfused, cfg);

  // Training accuracy of the learned weights.
  const auto margins = la::reference::spmv(X, r.weights);
  int correct = 0;
  for (usize i = 0; i < margins.size(); ++i) {
    if ((margins[i] >= 0 ? 1.0 : -1.0) == y[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / margins.size(), 0.85);
  EXPECT_EQ(r.iterations, 80);
  // The script exercised maps, products and transposed products.
  bool saw_map = false, saw_mvt = false;
  for (const auto& entry : rt.trace()) {
    saw_map |= entry.op == "sigmoid";
    saw_mvt |= entry.op == "transposed_product";
  }
  EXPECT_TRUE(saw_map);
  EXPECT_TRUE(saw_mvt);
}

TEST(Script, LogRegGdMatchesHostReference) {
  vgpu::Device dev;
  const auto X = la::uniform_sparse(300, 20, 0.3, 642);
  const auto y = la::classification_labels(X, 642, 0.1);
  GdConfig cfg;
  cfg.iterations = 10;

  Runtime rt(dev, {});
  const auto script = run_logreg_gd_script(rt, X, y, PlanMode::kUnfused, cfg);

  // Host re-implementation of the identical update.
  std::vector<real> w(20, 0.0);
  const auto sig = [](real t) {
    return t >= 0 ? real{1} / (real{1} + std::exp(-t))
                  : std::exp(t) / (real{1} + std::exp(t));
  };
  for (int it = 0; it < cfg.iterations; ++it) {
    auto m = la::reference::spmv(X, w);
    std::vector<real> r(m.size());
    for (usize i = 0; i < m.size(); ++i) {
      r[i] = sig(-y[i] * m[i]) * -y[i];
    }
    auto g = la::reference::spmv_transposed(X, r);
    for (usize j = 0; j < w.size(); ++j) {
      g[j] += cfg.lambda * w[j];
      w[j] -= cfg.step * g[j];
    }
  }
  test::expect_vectors_near(w, script.weights, 1e-8);
}

TEST(Script, TinyProblemStaysOnCpu) {
  vgpu::Device dev;
  const auto X = la::uniform_sparse(50, 20, 0.2, 624);
  const auto y = la::regression_labels(X, 624, 0.1);
  Runtime rt(dev, {});
  const auto r = run_lr_cg_script(rt, X, y, PlanMode::kHardcodedPass,
                                  {.max_iterations = 5});
  EXPECT_EQ(r.runtime_stats.gpu_ops, 0u)
      << "PCIe + JNI should make the GPU unattractive for toy data";
}

}  // namespace
}  // namespace fusedml::sysml
