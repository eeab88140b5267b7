// Resilience under injected device faults: deterministic schedules,
// bit-exact retried results, honest cost accounting, and graceful
// degradation — the contract docs/RESILIENCE.md documents.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/resilience.h"
#include "kernels/streaming.h"
#include "la/generate.h"
#include "la/vector_ops.h"
#include "kernels/op_registry.h"
#include "ml/script_library.h"
#include "sysml/memory_manager.h"
#include "sysml/runtime.h"
#include "vgpu/device.h"
#include "vgpu/fault_injector.h"

namespace fusedml {
namespace {

std::string tensor_name(long long id) {
  std::string name = "t";
  name += std::to_string(id);
  return name;
}

using kernels::Backend;
using kernels::KernelOutcome;
using kernels::OpRegistry;
using vgpu::FaultConfig;
using vgpu::FaultInjector;
using vgpu::FaultKind;

FaultConfig mixed_faults(double scale = 1.0) {
  FaultConfig cfg;
  cfg.seed = 0xFA17ULL;
  cfg.kernel_fault_rate = 0.05 * scale;
  cfg.ecc_fault_rate = 0.03 * scale;
  cfg.transfer_fault_rate = 0.05 * scale;
  return cfg;
}

TEST(FaultInjector, SameSeedSameSchedule) {
  FaultConfig cfg = mixed_faults(2.0);
  FaultInjector a(cfg), b(cfg);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.next_launch_fault(), b.next_launch_fault());
    EXPECT_EQ(a.next_transfer_fault(), b.next_transfer_fault());
    EXPECT_EQ(a.next_alloc_oom(), b.next_alloc_oom());
  }
  EXPECT_GT(a.log().total(), 0u);
  EXPECT_EQ(a.log().kernel_faults, b.log().kernel_faults);
  EXPECT_EQ(a.log().ecc_faults, b.log().ecc_faults);
  EXPECT_EQ(a.log().transfer_faults, b.log().transfer_faults);

  // reset() replays the identical schedule.
  a.reset();
  std::vector<FaultKind> replay;
  for (int i = 0; i < 100; ++i) replay.push_back(a.next_launch_fault());
  a.reset();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_launch_fault(), replay[i]);
}

TEST(FaultInjector, RejectsBadRates) {
  FaultConfig negative;
  negative.kernel_fault_rate = -0.1;
  EXPECT_THROW(FaultInjector{negative}, Error);
  FaultConfig too_much;
  too_much.kernel_fault_rate = 0.6;
  too_much.ecc_fault_rate = 0.3;
  too_much.oom_fault_rate = 0.2;  // per-launch sum > 1
  EXPECT_THROW(FaultInjector{too_much}, Error);
}

TEST(FaultInjector, DisarmedInjectorInjectsNothing) {
  FaultInjector inj{FaultConfig{}};  // all rates zero
  EXPECT_FALSE(inj.armed());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(inj.next_launch_fault(), FaultKind::kNone);
    EXPECT_FALSE(inj.next_transfer_fault());
    EXPECT_FALSE(inj.next_alloc_oom());
  }
}

TEST(RetryPolicyDeadline, ZeroDeadlineLeavesPolicyUnchanged) {
  RetryPolicy p;
  p.max_attempts = 3;
  p.max_total_overhead_ms = 2.0;
  const RetryPolicy same = p.within_deadline(1e9, 0.0);
  EXPECT_EQ(same.max_attempts, 3);
  EXPECT_EQ(same.max_total_overhead_ms, 2.0);
  EXPECT_EQ(RetryPolicy{}.within_deadline(5.0, 0.0).max_total_overhead_ms,
            0.0);
}

TEST(RetryPolicyDeadline, SpentDeadlineThrows) {
  const RetryPolicy p;
  EXPECT_THROW(p.within_deadline(4.0, 4.0), DeadlineError);
  EXPECT_THROW(p.within_deadline(4.5, 4.0), DeadlineError);
}

TEST(RetryPolicyDeadline, BudgetClampedToTimeRemaining) {
  RetryPolicy unbounded;
  EXPECT_EQ(unbounded.within_deadline(1.0, 4.0).max_total_overhead_ms, 3.0);
  RetryPolicy tight;
  tight.max_total_overhead_ms = 2.0;
  EXPECT_EQ(tight.within_deadline(1.0, 10.0).max_total_overhead_ms, 2.0);
  EXPECT_EQ(tight.within_deadline(9.5, 10.0).max_total_overhead_ms, 0.5);
  // Only the budget moves.
  EXPECT_EQ(tight.within_deadline(9.5, 10.0).max_attempts, tight.max_attempts);
}

/// Single-op dispatch through the registry's resilient loop: each op starts
/// on `start` under `retry` clamped to the modeled `deadline` (0 = none),
/// and bills its modeled time to `spent_ms` — the accounting a serving
/// worker does per pattern request.
struct Dispatcher {
  explicit Dispatcher(vgpu::Device& dev, Backend first = Backend::kFused)
      : reg(dev), start(first) {}

  template <typename Attempt>
  KernelOutcome run(Attempt&& attempt, std::span<real> inout = {}) {
    KernelOutcome o = reg.execute_resilient(
        start, retry.within_deadline(spent_ms, deadline_ms), attempt, inout,
        &resilience);
    spent_ms += o.modeled_ms;
    return o;
  }
  KernelOutcome pattern(real alpha, const la::CsrMatrix& X,
                        std::span<const real> v, std::span<const real> y,
                        real beta, std::span<const real> z) {
    return run([&](Backend b) {
      return reg.pattern(b, alpha, X, v, y, beta, z);
    });
  }

  OpRegistry reg;
  Backend start;
  RetryPolicy retry;
  ResilienceStats resilience;
  double spent_ms = 0.0;
  double deadline_ms = 0.0;
};

class ResilientExecutorTest : public ::testing::Test {
 protected:
  la::CsrMatrix X_ = la::uniform_sparse(3000, 120, 0.05, 17);
  std::vector<real> y_ = la::random_vector(120, 3);
  std::vector<real> v_ = la::random_vector(3000, 4);
  std::vector<real> z_ = la::random_vector(120, 5);
};

TEST_F(ResilientExecutorTest, PatternOpsBitExactUnderFaults) {
  vgpu::Device clean_dev;
  Dispatcher clean(clean_dev);

  FaultInjector inj(mixed_faults(2.0));
  vgpu::Device faulty_dev;
  faulty_dev.set_fault_injector(&inj);
  Dispatcher faulty(faulty_dev);

  const auto xty = [&](Dispatcher& d) {
    return d.run([&](Backend b) {
      return d.reg.transposed_product(b, X_, v_, 1);
    });
  };
  for (int rep = 0; rep < 30; ++rep) {
    const auto a = clean.pattern(1.5, X_, v_, y_, 0.5, z_);
    const auto b = faulty.pattern(1.5, X_, v_, y_, 0.5, z_);
    ASSERT_EQ(a.value, b.value) << "rep " << rep;
    ASSERT_EQ(xty(clean).value, xty(faulty).value) << "rep " << rep;
  }
  // The armed run really absorbed faults, recovered from every one of
  // them, and stayed on the fused backend throughout.
  const auto& rs = faulty.resilience;
  EXPECT_GT(rs.faults_seen, 0u);
  EXPECT_GT(rs.retries, 0u);
  EXPECT_EQ(rs.fallbacks, 0u);
  EXPECT_GT(rs.recoveries, 0u);
  EXPECT_GT(rs.overhead_ms(), 0.0);
  EXPECT_EQ(clean.resilience.faults_seen, 0u);
}

TEST_F(ResilientExecutorTest, InPlaceBlas1RestoredBeforeRetry) {
  vgpu::Device clean_dev;
  Dispatcher clean(clean_dev);

  // High ECC rate: faults fire AFTER the kernel mutated y in place, so a
  // bit-exact retry requires execute_resilient's snapshot/restore.
  FaultConfig cfg;
  cfg.seed = 99;
  cfg.ecc_fault_rate = 0.4;
  FaultInjector inj(cfg);
  vgpu::Device faulty_dev;
  faulty_dev.set_fault_injector(&inj);
  Dispatcher faulty(faulty_dev);

  auto yc = la::random_vector(5000, 7);
  auto yf = yc;
  const auto xs = la::random_vector(5000, 8);
  const auto axpy = [&](Dispatcher& d, std::vector<real>& y) {
    d.run([&](Backend b) { return d.reg.axpy(b, 0.25, xs, y); }, y);
  };
  const auto scal = [&](Dispatcher& d, std::vector<real>& y) {
    d.run([&](Backend b) { return d.reg.scal(b, 1.01, y); }, y);
  };
  const auto dot = [&](Dispatcher& d, const std::vector<real>& y) {
    return d.run([&](Backend b) { return d.reg.dot(b, xs, y); }).value;
  };
  for (int rep = 0; rep < 20; ++rep) {
    axpy(clean, yc);
    axpy(faulty, yf);
    ASSERT_EQ(yc, yf) << "rep " << rep;
    scal(clean, yc);
    scal(faulty, yf);
    ASSERT_EQ(yc, yf) << "rep " << rep;
    ASSERT_EQ(dot(clean, yc), dot(faulty, yf)) << "rep " << rep;
  }
  EXPECT_GT(faulty.resilience.faults_seen, 0u);
  EXPECT_EQ(faulty.resilience.fallbacks, 0u);
}

TEST_F(ResilientExecutorTest, DisarmedInjectorLeavesModeledTimeUntouched) {
  vgpu::Device plain_dev;
  Dispatcher plain(plain_dev);
  const auto a = plain.pattern(1, X_, v_, y_, 0, {});

  FaultInjector disarmed{FaultConfig{.seed = 1}};  // rates all zero
  vgpu::Device dev;
  dev.set_fault_injector(&disarmed);
  Dispatcher d(dev);
  const auto b = d.pattern(1, X_, v_, y_, 0, {});

  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.modeled_ms, b.modeled_ms);  // bit-identical, not just close
  EXPECT_EQ(a.launches, b.launches);
  EXPECT_FALSE(d.resilience.any());
}

TEST_F(ResilientExecutorTest, ExhaustedRetriesDegradeToCpu) {
  FaultConfig cfg;
  cfg.seed = 5;
  cfg.kernel_fault_rate = 1.0;  // every launch fails, on every GPU backend
  FaultInjector inj(cfg);
  vgpu::Device dev;
  dev.set_fault_injector(&inj);
  Dispatcher d(dev);
  d.retry.max_attempts = 2;

  const auto r = d.pattern(1, X_, v_, y_, 0, {});
  EXPECT_EQ(r.backend_used, Backend::kCpu);
  EXPECT_EQ(r.resilience.fallbacks, 2u);  // fused -> cusparse -> cpu
  EXPECT_NE(r.kernel.find("[after fallback]"), std::string::npos);

  // The CPU result is the CPU backend's own bits.
  vgpu::Device clean_dev;
  Dispatcher cpu(clean_dev, Backend::kCpu);
  EXPECT_EQ(r.value, cpu.pattern(1, X_, v_, y_, 0, {}).value);
}

TEST_F(ResilientExecutorTest, DeviceOomSkipsRetriesAndFallsBack) {
  FaultConfig cfg;
  cfg.seed = 5;
  cfg.oom_fault_rate = 1.0;
  FaultInjector inj(cfg);
  vgpu::Device dev;
  dev.set_fault_injector(&inj);
  Dispatcher d(dev);

  const auto r = d.pattern(1, X_, v_, y_, 0, {});
  EXPECT_EQ(r.backend_used, Backend::kCpu);
  // OOM is not transient: one fault per GPU backend, zero retries.
  EXPECT_EQ(r.resilience.retries, 0u);
  EXPECT_EQ(r.resilience.faults_seen, 2u);
  EXPECT_EQ(r.resilience.fallbacks, 2u);
}

TEST_F(ResilientExecutorTest, FallbackDisabledRethrowsTypedError) {
  FaultConfig cfg;
  cfg.seed = 5;
  cfg.kernel_fault_rate = 1.0;
  FaultInjector inj(cfg);
  vgpu::Device dev;
  dev.set_fault_injector(&inj);
  Dispatcher d(dev);
  d.retry.max_attempts = 2;
  d.retry.allow_backend_fallback = false;

  EXPECT_THROW(d.pattern(1, X_, v_, y_, 0, {}), KernelFaultError);
  EXPECT_GT(d.resilience.faults_seen, 0u);
  EXPECT_EQ(d.resilience.fallbacks, 0u);
}

TEST_F(ResilientExecutorTest, RetryBudgetFailsFastWithDeadlineError) {
  FaultConfig cfg;
  cfg.seed = 5;
  cfg.kernel_fault_rate = 1.0;  // permanent storm: retries can never succeed
  FaultInjector inj(cfg);
  vgpu::Device dev;
  dev.set_fault_injector(&inj);
  Dispatcher d(dev);
  // Budget smaller than one backoff wait: the dispatch must stop retrying
  // AND stop degrading as soon as the first wasted attempt lands, instead
  // of walking the full fused -> cusparse -> cpu ladder.
  d.retry.max_total_overhead_ms = 1e-4;

  EXPECT_THROW(d.pattern(1, X_, v_, y_, 0, {}), DeadlineError);
  const auto& rs = d.resilience;
  EXPECT_GT(rs.faults_seen, 0u);
  EXPECT_EQ(rs.fallbacks_to_cpu, 0u);  // fail-fast beat the CPU fallback
  EXPECT_GT(rs.overhead_ms(), 0.0);
  // The whole point of the budget: overhead stays near the cap rather than
  // accumulating max_attempts backoffs per backend tier.
  EXPECT_LT(rs.overhead_ms(), d.retry.backoff_ms(1) * d.retry.max_attempts);
}

TEST_F(ResilientExecutorTest, ModeledDeadlineGatesAndClampsDispatch) {
  // Past the deadline: the next op throws before it runs.
  vgpu::Device clean_dev;
  Dispatcher clean(clean_dev);
  clean.pattern(1, X_, v_, y_, 0, {});
  const double spent = clean.spent_ms;
  clean.deadline_ms = spent;
  EXPECT_THROW(clean.pattern(1, X_, v_, y_, 0, {}), DeadlineError);
  EXPECT_EQ(clean.spent_ms, spent);

  // Inside the deadline under a permanent fault storm: the retry budget is
  // clamped to the headroom, which is smaller than one backoff — so the
  // dispatch fails fast instead of retrying and degrading to the CPU, as
  // the same storm does with no deadline.
  FaultConfig cfg;
  cfg.seed = 5;
  cfg.kernel_fault_rate = 1.0;
  FaultInjector inj(cfg);
  vgpu::Device dev;
  dev.set_fault_injector(&inj);
  Dispatcher d(dev);
  ASSERT_EQ(d.retry.max_total_overhead_ms, 0.0);  // unbounded
  ASSERT_EQ(d.pattern(1, X_, v_, y_, 0, {}).backend_used, Backend::kCpu);
  d.resilience = ResilienceStats{};
  d.spent_ms = 0.0;
  d.deadline_ms = d.retry.backoff_ms(1) / 2;
  EXPECT_THROW(d.pattern(1, X_, v_, y_, 0, {}), DeadlineError);
  EXPECT_GT(d.resilience.faults_seen, 0u);
  EXPECT_EQ(d.resilience.retries, 0u);
  EXPECT_EQ(d.resilience.fallbacks, 0u);
}

TEST_F(ResilientExecutorTest, UnboundedBudgetDegradesWithSplitFallbackCounts) {
  FaultConfig cfg;
  cfg.seed = 5;
  cfg.kernel_fault_rate = 1.0;
  FaultInjector inj(cfg);
  vgpu::Device dev;
  dev.set_fault_injector(&inj);
  Dispatcher d(dev);
  d.retry.max_attempts = 2;
  ASSERT_EQ(d.retry.max_total_overhead_ms, 0.0);  // unbounded

  const auto r = d.pattern(1, X_, v_, y_, 0, {});
  EXPECT_EQ(r.backend_used, Backend::kCpu);
  // The split taxonomy tells WHICH tier each degradation landed on.
  EXPECT_EQ(r.resilience.fallbacks_to_baseline, 1u);  // fused -> cusparse
  EXPECT_EQ(r.resilience.fallbacks_to_cpu, 1u);       // cusparse -> cpu
  EXPECT_EQ(r.resilience.fallbacks,
            r.resilience.fallbacks_to_baseline + r.resilience.fallbacks_to_cpu);
}

TEST(StreamingResilience, PanelsRetryToBitExactResult) {
  const auto X = la::uniform_sparse(20000, 200, 0.02, 23);
  const auto y = la::random_vector(200, 2);
  const auto v = la::random_vector(20000, 6);

  kernels::StreamingOptions opts;
  opts.panel_rows = 2000;  // force 10 panels

  vgpu::Device clean_dev;
  const auto clean =
      kernels::streaming_pattern_sparse(clean_dev, 1, X, v, y, 0, {}, opts);
  ASSERT_GT(clean.panels, 1);
  EXPECT_FALSE(clean.resilience.any());

  FaultInjector inj(mixed_faults(2.0));
  vgpu::Device faulty_dev;
  faulty_dev.set_fault_injector(&inj);
  const auto faulty =
      kernels::streaming_pattern_sparse(faulty_dev, 1, X, v, y, 0, {}, opts);

  EXPECT_EQ(clean.op.value, faulty.op.value);
  EXPECT_EQ(clean.panels, faulty.panels);
  EXPECT_GT(faulty.resilience.faults_seen, 0u);
  EXPECT_GT(faulty.resilience.retries, 0u);
  // Retry + backoff time is charged, so the faulty pipeline is slower.
  EXPECT_GT(faulty.pipeline_ms, clean.pipeline_ms);
  EXPECT_GT(faulty.resilience.overhead_ms(), 0.0);
}

TEST(SolverResilience, LrCgConvergesIdenticallyUnderFaults) {
  const auto X = la::uniform_sparse(10000, 300, 0.02, 31);
  const auto labels = la::regression_labels(X, 31, 0.05);
  const ml::ScriptConfig cfg{.max_iterations = 100, .eps = 1e-6,
                             .tolerance = 1e-10};
  // Every op on the device, where the injector can reach it.
  const sysml::RuntimeOptions on_device{.gpu_cost_bias = 1e-4};

  vgpu::Device clean_dev;
  sysml::Runtime clean(clean_dev, on_device);
  const auto a =
      ml::run_lr_cg_script(clean, X, labels, sysml::PlanMode::kPlanner, cfg);

  FaultInjector inj(mixed_faults());  // ~5% of launches/transfers fault
  vgpu::Device faulty_dev;
  faulty_dev.set_fault_injector(&inj);
  sysml::Runtime faulty(faulty_dev, on_device);
  const auto b =
      ml::run_lr_cg_script(faulty, X, labels, sysml::PlanMode::kPlanner, cfg);

  EXPECT_LT(a.iterations, cfg.max_iterations) << "converged";
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.weights, b.weights);  // bit-exact, not approximately equal
  EXPECT_GT(faulty.resilience().faults_seen, 0u);
  EXPECT_GT(faulty.resilience().retries, 0u);
  EXPECT_EQ(faulty.resilience().fallbacks, 0u);
  EXPECT_GT(b.end_to_end_ms, a.end_to_end_ms);
}

TEST(MemoryManagerResilience, TransferFaultsRetryWithChargedBackoff) {
  FaultConfig cfg;
  cfg.seed = 3;
  cfg.transfer_fault_rate = 0.5;
  FaultInjector inj(cfg);
  vgpu::Device dev;
  dev.set_fault_injector(&inj);
  sysml::MemoryManager mm(dev, 1u << 20);

  vgpu::Device clean_dev;
  sysml::MemoryManager clean(clean_dev, 1u << 20);

  double faulty_ms = 0.0, clean_ms = 0.0;
  for (sysml::TensorId id = 1; id <= 8; ++id) {
    mm.register_tensor(id, 10000, tensor_name(id));
    clean.register_tensor(id, 10000, tensor_name(id));
    faulty_ms += mm.ensure_on_device(id);
    clean_ms += clean.ensure_on_device(id);
  }
  const auto& rs = mm.stats().resilience;
  EXPECT_GT(rs.faults_seen, 0u);
  EXPECT_GT(rs.retries, 0u);
  EXPECT_GT(rs.recoveries, 0u);  // recovered every time: nothing threw
  EXPECT_GT(faulty_ms, clean_ms);
  EXPECT_NEAR(faulty_ms - clean_ms, rs.overhead_ms(), 1e-9);
  EXPECT_EQ(mm.stats().h2d_transfers, clean.stats().h2d_transfers);
}

TEST(MemoryManagerResilience, InjectedAllocOomEvictsGracefully) {
  vgpu::Device dev;
  sysml::MemoryManager mm(dev, 4096);
  mm.register_tensor(1, 1000, "a");
  mm.register_tensor(2, 1000, "b");
  mm.ensure_on_device(1);

  // Arm the injector only now: the next allocation draws a guaranteed OOM,
  // which the manager absorbs by evicting the LRU victim (tensor 1).
  FaultConfig cfg;
  cfg.seed = 3;
  cfg.oom_fault_rate = 1.0;
  FaultInjector inj(cfg);
  dev.set_fault_injector(&inj);

  EXPECT_NO_THROW(mm.ensure_on_device(2));
  EXPECT_TRUE(mm.on_device(2));
  EXPECT_FALSE(mm.on_device(1));
  EXPECT_EQ(mm.stats().evictions, 1u);
  EXPECT_EQ(mm.stats().resilience.faults_seen, 1u);
  EXPECT_EQ(mm.stats().resilience.recoveries, 1u);

  // With nothing left to evict the OOM is real and surfaces typed.
  mm.release(2);
  mm.release(1);
  mm.register_tensor(3, 4096, "c");
  EXPECT_THROW(mm.ensure_on_device(3), DeviceOomError);
}

TEST(RuntimeResilience, OversizedPatternStreamsInsteadOfThrowing) {
  // 2000 x 500 doubles = 8 MB of dense X against a 4 MB device: the tensor
  // can never be resident, so op_pattern must reroute through streaming.
  const auto X = la::dense_random(2000, 500, 13);
  const auto y = la::random_vector(500, 2);

  sysml::RuntimeOptions gpu_opts;
  gpu_opts.device_capacity = 4u << 20;
  vgpu::Device dev;
  sysml::Runtime rt(dev, gpu_opts);
  const auto Xid = rt.add_dense(X, "X");
  const auto yid = rt.add_vector(y, "y");
  const auto wid = rt.op_pattern(1, Xid, 0, yid, 0, 0);
  const auto w = rt.read_vector(wid);

  EXPECT_GE(rt.memory_stats().streaming_fallbacks, 1u);
  EXPECT_GE(rt.stats().gpu_ops, 1u);

  // Same script on the CPU-only runtime as the numeric reference.
  vgpu::Device cpu_dev;
  sysml::Runtime cpu_rt(cpu_dev, {.enable_gpu = false});
  const auto Xc = cpu_rt.add_dense(X, "X");
  const auto yc = cpu_rt.add_vector(y, "y");
  const auto wc = cpu_rt.read_vector(cpu_rt.op_pattern(1, Xc, 0, yc, 0, 0));
  ASSERT_EQ(w.size(), wc.size());
  for (usize i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(w[i], wc[i], 1e-8 * (1.0 + std::abs(wc[i]))) << "i=" << i;
  }
}

TEST(RuntimeResilience, DagInterpreterAbsorbsFaultsBitExactly) {
  // Every Runtime op now dispatches through the registry's resilient loop
  // (the same one single-op callers use): a whole DAG script under an armed
  // injector must retry its way to the SAME weights as the clean run, with
  // only modeled time differing. gpu_cost_bias forces the device path even
  // at test scale — faults only fire on device work.
  const auto X = la::uniform_sparse(4000, 300, 0.02, 51);
  const auto labels = la::classification_labels(X, 51, 0.1);
  ml::GdConfig cfg;
  cfg.iterations = 6;

  vgpu::Device clean_dev;
  sysml::Runtime clean_rt(clean_dev,
                          {.enable_gpu = true, .gpu_cost_bias = 1e-4});
  const auto a = ml::run_logreg_gd_script(
      clean_rt, X, labels, sysml::PlanMode::kPlanner, cfg);

  FaultInjector inj(mixed_faults());
  vgpu::Device faulty_dev;
  faulty_dev.set_fault_injector(&inj);
  sysml::Runtime faulty_rt(faulty_dev,
                           {.enable_gpu = true, .gpu_cost_bias = 1e-4});
  const auto b = ml::run_logreg_gd_script(
      faulty_rt, X, labels, sysml::PlanMode::kPlanner, cfg);

  EXPECT_EQ(a.weights, b.weights);  // bit-exact recovery
  EXPECT_GT(faulty_rt.resilience().faults_seen, 0u);
  EXPECT_GT(faulty_rt.resilience().retries, 0u);
  EXPECT_GT(b.runtime_stats.total_ms(), a.runtime_stats.total_ms());
  EXPECT_EQ(clean_rt.resilience().faults_seen, 0u);
}

TEST(RuntimeResilience, RuntimeBlas1FaultsRolledBackBeforeRetry) {
  // op_axpy/op_scal mutate tensors in place; the registry snapshots the
  // span so a mid-op fault cannot leave a half-updated vector behind.
  FaultConfig cfg;
  cfg.seed = 77;
  cfg.kernel_fault_rate = 0.4;
  FaultInjector inj(cfg);
  vgpu::Device dev;
  dev.set_fault_injector(&inj);
  sysml::Runtime rt(dev, {.enable_gpu = true, .gpu_cost_bias = 1e-4});

  vgpu::Device clean_dev;
  sysml::Runtime clean_rt(clean_dev,
                          {.enable_gpu = true, .gpu_cost_bias = 1e-4});

  const auto x = la::random_vector(5000, 7);
  const auto y = la::random_vector(5000, 8);
  const auto xa = rt.add_vector(x, "x");
  const auto ya = rt.add_vector(y, "y");
  const auto xb = clean_rt.add_vector(x, "x");
  const auto yb = clean_rt.add_vector(y, "y");
  for (int i = 0; i < 10; ++i) {
    rt.op_axpy(0.5, xa, ya);
    rt.op_scal(1.01, ya);
    clean_rt.op_axpy(0.5, xb, yb);
    clean_rt.op_scal(1.01, yb);
  }
  const auto got = rt.read_vector(ya);
  const auto want = clean_rt.read_vector(yb);
  EXPECT_GT(rt.resilience().faults_seen, 0u);
  EXPECT_EQ(std::vector<real>(want.begin(), want.end()),
            std::vector<real>(got.begin(), got.end()));
}

TEST(RuntimeResilience, ModeledDeadlineGatesAndClampsDispatch) {
  const auto x = la::random_vector(5000, 7);
  const auto y = la::random_vector(5000, 8);

  // Past the deadline: the next op throws before it runs.
  vgpu::Device clean_dev;
  sysml::Runtime clean(clean_dev, {.enable_gpu = true, .gpu_cost_bias = 1e-4});
  const auto cx = clean.add_vector(x, "x");
  const auto cy = clean.add_vector(y, "y");
  clean.op_dot(cx, cy);
  const auto ops = clean.stats().gpu_ops + clean.stats().cpu_ops;
  clean.set_modeled_deadline(clean.stats().total_ms());
  EXPECT_THROW(clean.op_dot(cx, cy), DeadlineError);
  EXPECT_EQ(clean.stats().gpu_ops + clean.stats().cpu_ops, ops);

  // Inside the deadline under a permanent fault storm: the retry budget is
  // clamped to the headroom (smaller than one backoff), so the op fails
  // fast instead of retrying and degrading to the CPU as it does with no
  // deadline. The first op also stages x and y, so the second pays no
  // transfer before the clamp is computed.
  FaultConfig cfg;
  cfg.seed = 5;
  cfg.kernel_fault_rate = 1.0;
  FaultInjector inj(cfg);
  vgpu::Device dev;
  dev.set_fault_injector(&inj);
  sysml::Runtime rt(dev, {.enable_gpu = true, .gpu_cost_bias = 1e-4});
  const auto rx = rt.add_vector(x, "x");
  const auto ry = rt.add_vector(y, "y");
  rt.op_dot(rx, ry);
  ASSERT_EQ(rt.stats().cpu_ops, 1u);  // degraded all the way, unbounded
  const ResilienceStats before = rt.resilience();
  rt.set_modeled_deadline(rt.stats().total_ms() +
                          rt.retry_policy().backoff_ms(1) / 2);
  EXPECT_THROW(rt.op_dot(rx, ry), DeadlineError);
  EXPECT_GT(rt.resilience().faults_seen, before.faults_seen);
  EXPECT_EQ(rt.resilience().retries, before.retries);
  EXPECT_EQ(rt.resilience().fallbacks, before.fallbacks);
  EXPECT_EQ(rt.stats().cpu_ops, 1u);
}

}  // namespace
}  // namespace fusedml
