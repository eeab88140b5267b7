// Observability stack tests: trace recorder (ring, clock, spans), metrics
// registry, Chrome export, kernel events bit-matching the device session
// accounting, plan-vs-actual audit, and the clean-vs-faulted
// double-booking guarantee on RuntimeStats.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "kernels/fused_sparse.h"
#include "la/generate.h"
#include "obs/metrics.h"
#include "kernels/op_registry.h"
#include "obs/plan_audit.h"
#include "obs/trace.h"
#include "ml/script_library.h"
#include "sysml/runtime.h"
#include "vgpu/device.h"
#include "vgpu/fault_injector.h"

namespace fusedml {
namespace {

using obs::TraceEvent;
using obs::TraceRecorder;

/// Every test that arms the global recorder/registry goes through this so a
/// failing assertion cannot leak an enabled recorder into later tests.
struct ProfilingScope {
  explicit ProfilingScope(usize capacity = TraceRecorder::kDefaultCapacity) {
    obs::enable_profiling(capacity);
  }
  ~ProfilingScope() { obs::disable_profiling(); }
};

TraceEvent named_event(const std::string& name) {
  TraceEvent ev;
  ev.name = name;
  ev.cat = "test";
  return ev;
}

/// Event named "t<thread>". Built by appending: GCC 12 raises a false
/// -Wrestrict on `"t" + std::to_string(t)` inside the thread lambdas.
TraceEvent thread_event(int thread) {
  TraceEvent ev = named_event("t");
  ev.name += std::to_string(thread);
  return ev;
}

TEST(TraceRecorder, DisabledByDefaultAndRecordIsNoOp) {
  auto& rec = obs::recorder();
  rec.disable();
  EXPECT_FALSE(rec.enabled());
  rec.record(named_event("ignored"));
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
}

TEST(TraceRecorder, RingKeepsNewestAndCountsDrops) {
  ProfilingScope scope(8);
  auto& rec = obs::recorder();
  for (int i = 0; i < 20; ++i) {
    rec.record(named_event("ev" + std::to_string(i)));
  }
  EXPECT_EQ(rec.recorded(), 20u);
  EXPECT_EQ(rec.dropped(), 12u);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The oldest were dropped: the retained window is ev12..ev19 in order.
  for (usize i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].name, "ev" + std::to_string(12 + i));
    EXPECT_EQ(events[i].seq, 12 + i);
  }
}

TEST(TraceRecorder, ConcurrentWritersLoseNothingWithinCapacity) {
  ProfilingScope scope(1 << 12);
  auto& rec = obs::recorder();
  constexpr int kThreads = 8, kEvents = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kEvents; ++i) {
        rec.record(thread_event(t));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(rec.recorded(), static_cast<std::uint64_t>(kThreads * kEvents));
  EXPECT_EQ(rec.dropped(), 0u);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), static_cast<usize>(kThreads * kEvents));
  for (usize i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);  // unique, gap-free sequence numbers
  }
}

TEST(TraceRecorder, ModeledClockAdvances) {
  ProfilingScope scope;
  auto& rec = obs::recorder();
  EXPECT_DOUBLE_EQ(rec.now_ms(), 0.0);
  EXPECT_DOUBLE_EQ(rec.advance_ms(1.5), 0.0);  // returns pre-advance cursor
  EXPECT_DOUBLE_EQ(rec.advance_ms(0.5), 1.5);
  EXPECT_DOUBLE_EQ(rec.now_ms(), 2.0);
  rec.advance_to_ms(1.0);  // backwards: no-op
  EXPECT_DOUBLE_EQ(rec.now_ms(), 2.0);
  rec.advance_to_ms(3.0);
  EXPECT_DOUBLE_EQ(rec.now_ms(), 3.0);
  rec.clear();
  EXPECT_DOUBLE_EQ(rec.now_ms(), 0.0);
  EXPECT_TRUE(rec.enabled());  // clear keeps recording on
}

TEST(TraceSpan, MeasuresInnerAdvancesAndCovers) {
  ProfilingScope scope;
  auto& rec = obs::recorder();
  rec.advance_ms(1.0);
  {
    obs::TraceSpan span("outer", "test", obs::Track::kOps);
    ASSERT_TRUE(span.active());
    rec.advance_ms(2.0);  // a leaf charge inside the span
    span.arg("answer", 42.0);
  }
  {
    obs::TraceSpan span("covered", "test", obs::Track::kOps);
    span.cover_modeled_ms(5.0);  // no leaf advanced; span charges 5 ms total
  }
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_DOUBLE_EQ(events[0].ts_ms, 1.0);
  EXPECT_DOUBLE_EQ(events[0].dur_ms, 2.0);
  ASSERT_EQ(events[0].num_args.size(), 1u);
  EXPECT_EQ(events[0].num_args[0].first, "answer");
  EXPECT_EQ(events[1].name, "covered");
  EXPECT_DOUBLE_EQ(events[1].ts_ms, 3.0);
  EXPECT_DOUBLE_EQ(events[1].dur_ms, 5.0);
  EXPECT_DOUBLE_EQ(rec.now_ms(), 8.0);
}

TEST(TraceRecorder, ChromeExportHasTrackMetadataAndEvents) {
  ProfilingScope scope;
  auto& rec = obs::recorder();
  {
    obs::TraceSpan span("hello \"span\"", "test", obs::Track::kDispatch);
    rec.advance_ms(1.0);
  }
  std::ostringstream os;
  rec.export_chrome_trace(os);
  const std::string trace = os.str();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("hello \\\"span\\\""), std::string::npos);  // escaped
  EXPECT_EQ(trace.find("\"ts\":-"), std::string::npos);  // no negative times
}

TEST(Metrics, RegistryGetOrCreateAndReset) {
  ProfilingScope scope;
  auto& reg = obs::metrics();
  auto& c = reg.counter("test.counter");
  c.add(3);
  EXPECT_EQ(&reg.counter("test.counter"), &c);  // stable handle
  EXPECT_EQ(c.value(), 3u);
  reg.gauge("test.gauge").add(1.5);
  reg.histogram("test.histo").observe(2.0);
  reg.histogram("test.histo").observe(4.0);
  EXPECT_DOUBLE_EQ(reg.histogram("test.histo").mean(), 3.0);

  std::ostringstream os;
  reg.write_json(os);
  EXPECT_NE(os.str().find("test.counter"), std::string::npos);
  EXPECT_NE(os.str().find("test.gauge"), std::string::npos);

  reg.reset();
  EXPECT_EQ(c.value(), 0u);  // handle survives reset
  EXPECT_DOUBLE_EQ(reg.gauge("test.gauge").value(), 0.0);
  EXPECT_EQ(reg.histogram("test.histo").count(), 0u);
}

TEST(Metrics, EmptyHistogramReportsZeros) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Metrics, HistogramReservoirStaysBoundedWithExactScalars) {
  obs::Histogram h;
  // Below the cap the reservoir holds every sample and quantiles are exact.
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.reservoir_size(), 100u);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 50.0);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 99.0);
  // Push an order of magnitude past the cap: memory stays at the cap while
  // count/sum/min/max remain exact, and quantiles stay inside the observed
  // range (the reservoir is a uniform subsample of it).
  constexpr int kTotal = 10 * static_cast<int>(
      obs::Histogram::kReservoirCapacity);
  for (int i = 101; i <= kTotal; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(h.reservoir_size(), obs::Histogram::kReservoirCapacity);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), static_cast<double>(kTotal));
  EXPECT_DOUBLE_EQ(h.mean(), (1.0 + kTotal) / 2.0);
  const double p50 = h.percentile(50.0);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p50, h.max());
  EXPECT_LE(h.percentile(50.0), h.percentile(95.0));
  EXPECT_LE(h.percentile(95.0), h.percentile(99.0));

  // The replacement stream is a deterministic LCG: the same single-threaded
  // observation sequence reproduces the same quantiles bit-for-bit.
  obs::Histogram h2;
  for (int i = 1; i <= kTotal; ++i) h2.observe(static_cast<double>(i));
  EXPECT_EQ(h2.percentile(50.0), p50);
  EXPECT_EQ(h2.percentile(99.0), h.percentile(99.0));

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.reservoir_size(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
}

TEST(Metrics, ConcurrentHammerKeepsExactTotals) {
  ProfilingScope scope;
  auto& reg = obs::metrics();
  constexpr int kThreads = 8, kIters = 5000;
  auto* main_counter = &reg.counter("hammer.counter");
  std::vector<std::thread> threads;
  std::atomic<int> stable_handles{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, main_counter, &stable_handles] {
      // Re-resolve every name each iteration: the registry's get-or-create
      // path is hammered as hard as the instruments themselves.
      for (int i = 0; i < kIters; ++i) {
        auto& c = reg.counter("hammer.counter");
        if (&c == main_counter) stable_handles.fetch_add(1);
        c.add(1);
        reg.gauge("hammer.gauge").add(1.0);
        reg.histogram("hammer.histo").observe(static_cast<double>(i % 100));
      }
    });
  }
  for (auto& th : threads) th.join();

  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kThreads) * kIters;
  EXPECT_EQ(stable_handles.load(), kThreads * kIters);  // one shared instrument
  EXPECT_EQ(reg.counter("hammer.counter").value(), kTotal);
  EXPECT_DOUBLE_EQ(reg.gauge("hammer.gauge").value(),
                   static_cast<double>(kTotal));
  auto& h = reg.histogram("hammer.histo");
  EXPECT_EQ(h.count(), kTotal);
  EXPECT_DOUBLE_EQ(h.mean(), 49.5);  // each of 0..99 observed equally often
  EXPECT_DOUBLE_EQ(h.max(), 99.0);
}

TEST(TraceRecorder, ConcurrentOverflowAccountsForEveryEvent) {
  constexpr usize kCapacity = 64;  // rounds to 8 slots x 8 shards exactly
  ProfilingScope scope(kCapacity);
  auto& rec = obs::recorder();
  constexpr int kThreads = 8, kEvents = 100;  // 800 records >> 64 slots
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kEvents; ++i) {
        rec.record(thread_event(t));
      }
    });
  }
  for (auto& th : threads) th.join();

  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kThreads) * kEvents;
  EXPECT_EQ(rec.recorded(), kTotal);
  EXPECT_EQ(rec.dropped(), kTotal - kCapacity);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), kCapacity);  // ring is full, nothing double-counted
  // Every retained slot holds a distinct event: sequence numbers are unique.
  std::vector<std::uint64_t> seqs;
  seqs.reserve(events.size());
  for (const auto& ev : events) seqs.push_back(ev.seq);
  std::sort(seqs.begin(), seqs.end());
  EXPECT_EQ(std::unique(seqs.begin(), seqs.end()), seqs.end());
  EXPECT_LT(seqs.back(), kTotal);
}

TEST(Obs, DisabledObservabilityKeepsModeledNumbersBitIdentical) {
  const auto X = la::uniform_sparse(3000, 200, 0.02, 11);
  const auto y = la::random_vector(200, 12);

  obs::disable_profiling();
  obs::recorder().clear();
  vgpu::Device plain_dev;
  const auto plain = kernels::fused_pattern_sparse(plain_dev, 1, X, {}, y,
                                                   0, {});
  EXPECT_EQ(obs::recorder().recorded(), 0u);

  double traced_ms = 0.0;
  std::vector<real> traced_value;
  {
    ProfilingScope scope;
    vgpu::Device traced_dev;
    const auto traced = kernels::fused_pattern_sparse(traced_dev, 1, X, {}, y,
                                                      0, {});
    EXPECT_GT(obs::recorder().recorded(), 0u);
    traced_ms = traced.modeled_ms;
    traced_value = traced.value;
  }
  EXPECT_EQ(plain.modeled_ms, traced_ms);  // bit-identical, not NEAR
  EXPECT_EQ(plain.value, traced_value);
}

TEST(Obs, KernelEventsBitMatchDeviceAndRuntimeAccounting) {
  ProfilingScope scope;
  const auto X = la::uniform_sparse(2000, 400, 0.01, 42);
  const auto labels = la::regression_labels(X, 42, 0.1);
  ml::ScriptConfig cfg;
  cfg.max_iterations = 10;
  cfg.tolerance = 0;

  vgpu::Device dev;
  sysml::Runtime rt(dev, {.enable_gpu = true, .gpu_cost_bias = 1e-4});
  const auto out =
      ml::run_lr_cg_script(rt, X, labels, sysml::PlanMode::kPlanner, cfg);

  const auto events = obs::recorder().snapshot();
  ASSERT_EQ(obs::recorder().dropped(), 0u);
  std::uint64_t launches = 0;
  vgpu::MemCounters counters;
  double kernel_ms = 0.0;
  for (const TraceEvent& ev : events) {
    if (!ev.has_kernel || std::string(ev.cat) != "kernel") continue;
    EXPECT_FALSE(ev.name.empty());
    ++launches;
    counters += ev.kernel.counters;
    kernel_ms += ev.dur_ms;
  }

  // One kernel event per device launch — 10 planner iterations of LR-CG
  // produce >= 73 launches (7 per iteration + setup).
  EXPECT_GE(launches, 73u);
  EXPECT_EQ(launches, dev.session_launches());
  EXPECT_EQ(launches, out.runtime_stats.kernel_launches);

  // Integer totals summed from the per-launch payloads bit-match the device
  // session counters.
  const auto& session = dev.session_counters();
  EXPECT_EQ(counters.gld_transactions, session.gld_transactions);
  EXPECT_EQ(counters.gst_transactions, session.gst_transactions);
  EXPECT_EQ(counters.flops, session.flops);
  EXPECT_NEAR(kernel_ms, dev.session_modeled_ms(), 1e-9);

  // Plan-vs-actual: the planner's launch prediction matches execution.
  const auto& audit = out.plan_audit;
  ASSERT_TRUE(audit.has_prediction);
  EXPECT_EQ(audit.executions, 10u);
  EXPECT_EQ(audit.launch_drift(), 0);
}

TEST(Obs, RetriedAttemptsDoNotDoubleBookSuccessMetrics) {
  // The double-booking guarantee: a faulted run that recovers on the SAME
  // backend books identical success-path metrics (launch counts, op counts,
  // clean kernel milliseconds) as the fault-free run; everything the faults
  // cost lands in resilience_overhead_ms alone.
  const auto X = la::uniform_sparse(3000, 250, 0.02, 7);
  const auto labels = la::regression_labels(X, 7, 0.1);
  ml::ScriptConfig cfg;
  cfg.max_iterations = 8;
  cfg.tolerance = 0;

  vgpu::Device clean_dev;
  sysml::Runtime clean_rt(clean_dev,
                          {.enable_gpu = true, .gpu_cost_bias = 1e-4});
  const auto clean =
      ml::run_lr_cg_script(clean_rt, X, labels, sysml::PlanMode::kPlanner, cfg);

  vgpu::FaultConfig fc;
  fc.seed = 99;
  fc.kernel_fault_rate = 0.15;  // launch drops only: retries stay on-backend
  vgpu::FaultInjector injector(fc);
  vgpu::Device faulty_dev;
  faulty_dev.set_fault_injector(&injector);
  sysml::Runtime faulty_rt(faulty_dev,
                           {.enable_gpu = true, .gpu_cost_bias = 1e-4});
  const auto faulty = ml::run_lr_cg_script(
      faulty_rt, X, labels, sysml::PlanMode::kPlanner, cfg);

  // Preconditions: faults actually fired and were absorbed without changing
  // the backend (a fallback would legitimately change the metrics).
  ASSERT_GT(faulty_rt.resilience().faults_seen, 0u);
  ASSERT_GT(faulty_rt.resilience().retries, 0u);
  ASSERT_EQ(faulty_rt.resilience().fallbacks, 0u);

  EXPECT_EQ(clean.weights, faulty.weights);  // bit-exact recovery

  const auto& a = clean.runtime_stats;
  const auto& b = faulty.runtime_stats;
  EXPECT_EQ(a.kernel_launches, b.kernel_launches);
  EXPECT_EQ(a.gpu_ops, b.gpu_ops);
  EXPECT_EQ(a.cpu_ops, b.cpu_ops);
  EXPECT_DOUBLE_EQ(a.gpu_kernel_ms, b.gpu_kernel_ms);
  EXPECT_DOUBLE_EQ(a.pattern_gpu_ms, b.pattern_gpu_ms);
  EXPECT_DOUBLE_EQ(a.cpu_op_ms, b.cpu_op_ms);

  EXPECT_DOUBLE_EQ(a.resilience_overhead_ms, 0.0);
  EXPECT_GT(b.resilience_overhead_ms, 0.0);
  // The ONLY total-time difference is the overhead bucket.
  EXPECT_NEAR(b.total_ms() - a.total_ms(), b.resilience_overhead_ms, 1e-9);

  // The audit counts success-path launches, so drift stays zero even when
  // faults forced retries.
  ASSERT_TRUE(faulty.plan_audit.has_prediction);
  EXPECT_EQ(faulty.plan_audit.launch_drift(), 0);
}

TEST(Obs, TraceCoversDispatchRetriesUnderFaults) {
  ProfilingScope scope;
  const auto X = la::uniform_sparse(2000, 200, 0.02, 3);
  const auto y = la::random_vector(2000, 4);

  vgpu::FaultConfig fc;
  fc.seed = 5;
  fc.kernel_fault_rate = 0.3;
  vgpu::FaultInjector injector(fc);
  vgpu::Device dev;
  dev.set_fault_injector(&injector);
  kernels::OpRegistry reg(dev);
  const auto r = reg.execute_resilient(
      kernels::Backend::kFused, RetryPolicy{}, [&](kernels::Backend b) {
        return reg.transposed_product(b, X, y, 1);
      });
  ASSERT_GT(r.resilience.faults_seen, 0u);

  bool saw_fault = false, saw_backoff = false, saw_kernel = false,
       saw_dispatch = false;
  for (const auto& ev : obs::recorder().snapshot()) {
    const std::string cat = ev.cat;
    if (cat == "fault") saw_fault = true;
    if (ev.name == "retry_backoff") saw_backoff = true;
    if (cat == "kernel") saw_kernel = true;
    if (cat == "dispatch") saw_dispatch = true;
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_TRUE(saw_backoff);
  EXPECT_TRUE(saw_kernel);
  EXPECT_TRUE(saw_dispatch);
}

}  // namespace
}  // namespace fusedml
