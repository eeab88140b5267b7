// The serving layer's deterministic unit tests: admission-queue semantics,
// the breaker state machine (on a hand-cranked clock), exactly-once
// resolution, deadline outcomes, and graceful drain. The adversarial
// multi-threaded soak lives in test_chaos.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include "la/generate.h"
#include "kernels/op_registry.h"
#include "serve/admission_queue.h"
#include "serve/circuit_breaker.h"
#include "serve/flight_recorder.h"
#include "serve/request_trace.h"
#include "serve/server.h"
#include "serve/slo.h"
#include "ml/script_library.h"

namespace fusedml::serve {
namespace {

using kernels::Backend;

PendingPtr make_pending(Priority priority) {
  auto p = std::make_shared<PendingRequest>();
  p->request.priority = priority;
  p->state = std::make_shared<RequestState>();
  return p;
}

// --- AdmissionQueue ---------------------------------------------------------

TEST(AdmissionQueue, AdmitsUpToCapacityThenRejectsEqualPriority) {
  AdmissionQueue q(2);
  PendingPtr victim;
  EXPECT_EQ(q.push(make_pending(Priority::kNormal), &victim),
            AdmissionQueue::Admit::kAdmitted);
  EXPECT_EQ(q.push(make_pending(Priority::kNormal), &victim),
            AdmissionQueue::Admit::kAdmitted);
  EXPECT_EQ(q.push(make_pending(Priority::kNormal), &victim),
            AdmissionQueue::Admit::kRejectedFull);
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.high_water(), 2u);
}

TEST(AdmissionQueue, HigherPriorityShedsNewestOfLowestBand) {
  AdmissionQueue q(2);
  PendingPtr victim;
  auto batch_old = make_pending(Priority::kBatch);
  auto batch_new = make_pending(Priority::kBatch);
  ASSERT_EQ(q.push(batch_old, &victim), AdmissionQueue::Admit::kAdmitted);
  ASSERT_EQ(q.push(batch_new, &victim), AdmissionQueue::Admit::kAdmitted);
  EXPECT_EQ(q.push(make_pending(Priority::kInteractive), &victim),
            AdmissionQueue::Admit::kAdmittedAfterShed);
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim.get(), batch_new.get());  // newest of the lowest band
  EXPECT_EQ(q.depth(), 2u);                  // bounded: shed, not grown
  // A batch submit cannot shed another batch entry.
  EXPECT_EQ(q.push(make_pending(Priority::kBatch), &victim),
            AdmissionQueue::Admit::kRejectedFull);
}

TEST(AdmissionQueue, PopsHighestPriorityFirstFifoWithinBand) {
  AdmissionQueue q(8);
  PendingPtr victim;
  auto b1 = make_pending(Priority::kBatch);
  auto n1 = make_pending(Priority::kNormal);
  auto n2 = make_pending(Priority::kNormal);
  auto i1 = make_pending(Priority::kInteractive);
  q.push(b1, &victim);
  q.push(n1, &victim);
  q.push(n2, &victim);
  q.push(i1, &victim);
  EXPECT_EQ(q.pop_blocking().get(), i1.get());
  EXPECT_EQ(q.pop_blocking().get(), n1.get());
  EXPECT_EQ(q.pop_blocking().get(), n2.get());
  EXPECT_EQ(q.pop_blocking().get(), b1.get());
}

TEST(AdmissionQueue, CloseStopsAdmissionButDrainsQueuedEntries) {
  AdmissionQueue q(4);
  PendingPtr victim;
  auto p = make_pending(Priority::kNormal);
  q.push(p, &victim);
  q.close();
  EXPECT_EQ(q.push(make_pending(Priority::kInteractive), &victim),
            AdmissionQueue::Admit::kClosed);
  EXPECT_EQ(q.pop_blocking().get(), p.get());
  EXPECT_EQ(q.pop_blocking(), nullptr);  // closed and empty
}

// --- RequestState / ServeHandle --------------------------------------------

TEST(RequestState, ResolveIsExactlyOnce) {
  auto state = std::make_shared<RequestState>();
  ServeOutcome first;
  first.kind = OutcomeKind::kCompleted;
  EXPECT_TRUE(state->resolve(first));
  ServeOutcome second;
  second.kind = OutcomeKind::kFailed;
  EXPECT_FALSE(state->resolve(second));
  EXPECT_EQ(state->wait().kind, OutcomeKind::kCompleted);
  EXPECT_EQ(state->resolutions(), 1);
}

TEST(RequestState, CancelResolvesImmediatelyAndLosesToACompletedResult) {
  auto won = std::make_shared<RequestState>();
  ServeHandle cancelled(won);
  cancelled.cancel();
  EXPECT_EQ(cancelled.wait().kind, OutcomeKind::kCancelled);
  EXPECT_TRUE(won->cancel_requested());

  auto raced = std::make_shared<RequestState>();
  ServeOutcome done;
  done.kind = OutcomeKind::kCompleted;
  raced->resolve(done);
  ServeHandle late(raced);
  late.cancel();  // loses: outcome already delivered
  EXPECT_EQ(late.wait().kind, OutcomeKind::kCompleted);
  EXPECT_EQ(raced->resolutions(), 1);
}

// --- BreakerBoard on a hand-cranked clock ----------------------------------

TEST(BreakerBoard, OpensAfterThresholdAndSkipsWhileOpen) {
  double clock = 0.0;
  BreakerConfig cfg;
  cfg.failure_threshold = 3;
  cfg.cooldown_ms = 10.0;
  BreakerBoard board(cfg, [&] { return clock; });

  EXPECT_TRUE(board.allow(Backend::kFused));
  board.on_failure(Backend::kFused);
  board.on_failure(Backend::kFused);
  EXPECT_EQ(board.state(Backend::kFused), BreakerState::kClosed);
  board.on_failure(Backend::kFused);
  EXPECT_EQ(board.state(Backend::kFused), BreakerState::kOpen);
  EXPECT_FALSE(board.allow(Backend::kFused));
  EXPECT_FALSE(board.allow(Backend::kFused));
  EXPECT_EQ(board.stats(Backend::kFused).skips, 2u);
  // The CPU tier is terminal and must never be gated.
  EXPECT_TRUE(board.allow(Backend::kCpu));
  // Other tiers are independent.
  EXPECT_TRUE(board.allow(Backend::kCusparse));
}

TEST(BreakerBoard, HalfOpenProbeClosesOnSuccess) {
  double clock = 0.0;
  BreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.cooldown_ms = 10.0;
  BreakerBoard board(cfg, [&] { return clock; });
  board.on_failure(Backend::kFused);
  ASSERT_EQ(board.state(Backend::kFused), BreakerState::kOpen);

  clock = 5.0;
  EXPECT_FALSE(board.allow(Backend::kFused));  // still cooling down
  clock = 10.0;
  EXPECT_TRUE(board.allow(Backend::kFused));   // the half-open probe
  EXPECT_EQ(board.state(Backend::kFused), BreakerState::kHalfOpen);
  EXPECT_FALSE(board.allow(Backend::kFused));  // only one probe at a time
  board.on_success(Backend::kFused);
  EXPECT_EQ(board.state(Backend::kFused), BreakerState::kClosed);
  EXPECT_TRUE(board.allow(Backend::kFused));
  EXPECT_EQ(board.stats(Backend::kFused).closes, 1u);
}

TEST(BreakerBoard, FailedProbeReopensAndReArmsCooldown) {
  double clock = 0.0;
  BreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.cooldown_ms = 10.0;
  BreakerBoard board(cfg, [&] { return clock; });
  board.on_failure(Backend::kFused);
  clock = 10.0;
  ASSERT_TRUE(board.allow(Backend::kFused));
  board.on_failure(Backend::kFused);  // probe failed
  EXPECT_EQ(board.state(Backend::kFused), BreakerState::kOpen);
  EXPECT_EQ(board.stats(Backend::kFused).reopens, 1u);
  clock = 15.0;
  EXPECT_FALSE(board.allow(Backend::kFused));  // cooldown restarted at t=10
  clock = 20.0;
  EXPECT_TRUE(board.allow(Backend::kFused));
  EXPECT_EQ(board.total_opens(), 2u);  // initial open + reopen
}

TEST(BreakerBoard, DisabledBoardAlwaysAllows) {
  BreakerConfig cfg;
  cfg.enabled = false;
  cfg.failure_threshold = 1;
  BreakerBoard board(cfg, [] { return 0.0; });
  board.on_failure(Backend::kFused);
  board.on_failure(Backend::kFused);
  EXPECT_TRUE(board.allow(Backend::kFused));
}

// --- Server -----------------------------------------------------------------

ServeRequest pattern_request(DatasetId dataset, const la::CsrMatrix& X,
                             std::uint64_t seed,
                             Priority priority = Priority::kNormal) {
  PatternEval eval;
  eval.dataset = dataset;
  eval.y = la::random_vector(static_cast<usize>(X.cols()), seed);
  ServeRequest req;
  req.work = std::move(eval);
  req.priority = priority;
  return req;
}

TEST(Server, CompletedPatternIsBitExactAgainstAReferenceExecutor) {
  la::CsrMatrix X = la::uniform_sparse(96, 48, 0.1, 7);
  ServeOptions opts;
  opts.workers = 2;
  Server server(opts);
  const DatasetId id = server.add_dataset(X);
  server.start();
  std::vector<ServeHandle> handles;
  for (int i = 0; i < 6; ++i) {
    handles.push_back(server.submit(pattern_request(id, X, 100u + i)));
  }
  for (int i = 0; i < 6; ++i) {
    const ServeOutcome& o = handles[(usize)i].wait();
    ASSERT_EQ(o.kind, OutcomeKind::kCompleted);
    vgpu::Device ref_dev;
    kernels::OpRegistry ref(ref_dev);
    auto y = la::random_vector(static_cast<usize>(X.cols()), 100u + i);
    auto expect = ref.pattern(o.backend_used, 1, X, {}, y, 0, {});
    ASSERT_EQ(o.value.size(), expect.value.size());
    for (usize j = 0; j < o.value.size(); ++j) {
      EXPECT_EQ(o.value[j], expect.value[j]) << "element " << j;
    }
  }
  ServeStats stats = server.drain();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.resolved(), stats.submitted);
}

TEST(Server, ScriptRequestMatchesAReferenceRuntime) {
  la::CsrMatrix X = la::uniform_sparse(64, 24, 0.15, 11);
  auto labels = la::regression_labels(X, 12, 0.05);
  ServeOptions opts;
  opts.workers = 1;
  Server server(opts);
  const DatasetId id = server.add_dataset(X);

  ScriptEval eval;
  eval.dataset = id;
  eval.kind = ScriptKind::kLrCg;
  eval.iterations = 3;
  eval.labels = labels;
  ServeRequest req;
  req.work = eval;
  server.start();
  ServeHandle h = server.submit(std::move(req));
  const ServeOutcome& o = h.wait();
  ASSERT_EQ(o.kind, OutcomeKind::kCompleted);
  ASSERT_EQ(o.resilience.fallbacks, 0u);

  vgpu::Device ref_dev;
  sysml::RuntimeOptions ro;
  ro.device_capacity = server.pool().session_memory_bytes();
  sysml::Runtime rt(ref_dev, ro);
  ml::ScriptConfig cfg;
  cfg.max_iterations = 3;
  auto expect =
      ml::run_lr_cg_script(rt, X, labels, sysml::PlanMode::kPlanner, cfg);
  ASSERT_EQ(o.value.size(), expect.weights.size());
  for (usize j = 0; j < o.value.size(); ++j) {
    EXPECT_EQ(o.value[j], expect.weights[j]) << "weight " << j;
  }
  server.drain();
}

TEST(Server, PreStartAdmissionShedsAndRejectsDeterministically) {
  la::CsrMatrix X = la::uniform_sparse(32, 16, 0.2, 3);
  ServeOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;
  Server server(opts);
  const DatasetId id = server.add_dataset(X);

  // Queue fills before workers exist, so admission is deterministic.
  auto b1 = server.submit(pattern_request(id, X, 1, Priority::kBatch));
  auto b2 = server.submit(pattern_request(id, X, 2, Priority::kBatch));
  auto b3 = server.submit(pattern_request(id, X, 3, Priority::kBatch));
  EXPECT_EQ(b3.wait().kind, OutcomeKind::kRejected);
  EXPECT_EQ(b3.wait().reject_reason, RejectReason::kQueueFull);

  auto hi = server.submit(pattern_request(id, X, 4, Priority::kInteractive));
  // b2 (newest batch entry) was shed to admit the interactive request.
  EXPECT_EQ(b2.wait().kind, OutcomeKind::kRejected);
  EXPECT_EQ(b2.wait().reject_reason, RejectReason::kShedding);

  server.start();
  EXPECT_EQ(b1.wait().kind, OutcomeKind::kCompleted);
  EXPECT_EQ(hi.wait().kind, OutcomeKind::kCompleted);
  ServeStats stats = server.drain();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.resolved(), stats.submitted);
  EXPECT_LE(stats.queue_high_water, opts.queue_capacity);
}

TEST(Server, OversizedWorkingSetIsRejectedOverCapacity) {
  la::CsrMatrix X = la::uniform_sparse(128, 64, 0.2, 5);
  ServeOptions opts;
  opts.workers = 2;
  opts.pool_memory_bytes = 2 * X.bytes();  // per-session slice < X
  Server server(opts);
  const DatasetId id = server.add_dataset(X);
  ServeHandle h = server.submit(pattern_request(id, X, 9));
  EXPECT_EQ(h.wait().kind, OutcomeKind::kRejected);
  EXPECT_EQ(h.wait().reject_reason, RejectReason::kOverCapacity);
  ServeStats stats = server.drain();
  EXPECT_EQ(stats.rejected_over_capacity, 1u);
  EXPECT_EQ(stats.resolved(), stats.submitted);
}

TEST(Server, QueuedDeadlineExpiresOnTheModeledClock) {
  la::CsrMatrix X = la::uniform_sparse(256, 96, 0.15, 21);
  ServeOptions opts;
  opts.workers = 1;
  Server server(opts);
  const DatasetId id = server.add_dataset(X);
  // First request (no deadline) advances the modeled clock; the second has
  // a deadline far below the first request's execution time, so it expires
  // while queued.
  auto big = server.submit(pattern_request(id, X, 31));
  ServeRequest tight = pattern_request(id, X, 32);
  tight.deadline_ms = 1e-6;
  auto doomed = server.submit(std::move(tight));
  server.start();
  EXPECT_EQ(big.wait().kind, OutcomeKind::kCompleted);
  const ServeOutcome& o = doomed.wait();
  EXPECT_EQ(o.kind, OutcomeKind::kDeadlineExceeded);
  EXPECT_TRUE(o.value.empty());
  ServeStats stats = server.drain();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.resolved(), stats.submitted);
}

TEST(Server, DeadlineClampsRetryBudgetUnderPermanentFaults) {
  la::CsrMatrix X = la::uniform_sparse(64, 32, 0.2, 41);
  ServeOptions opts;
  opts.workers = 1;
  opts.faults.kernel_fault_rate = 1.0;  // every GPU launch fails
  opts.breaker.enabled = false;         // isolate the deadline path
  Server server(opts);
  const DatasetId id = server.add_dataset(X);
  ServeRequest req = pattern_request(id, X, 42);
  req.deadline_ms = 0.01;  // far below one full retry schedule's backoff
  server.start();
  ServeHandle h = server.submit(std::move(req));
  const ServeOutcome& o = h.wait();
  EXPECT_EQ(o.kind, OutcomeKind::kDeadlineExceeded);
  EXPECT_GT(o.resilience.faults_seen, 0u);
  ServeStats stats = server.drain();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
}

TEST(Server, CancelledWhileQueuedNeverExecutes) {
  la::CsrMatrix X = la::uniform_sparse(32, 16, 0.2, 51);
  ServeOptions opts;
  opts.workers = 1;
  Server server(opts);
  const DatasetId id = server.add_dataset(X);
  ServeHandle h = server.submit(pattern_request(id, X, 52));
  h.cancel();
  EXPECT_EQ(h.wait().kind, OutcomeKind::kCancelled);
  server.start();
  ServeStats stats = server.drain();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.resolved(), stats.submitted);
  EXPECT_EQ(h.state()->resolutions(), 1);
}

TEST(Server, DrainIsIdempotentAndRejectsLateSubmits) {
  la::CsrMatrix X = la::uniform_sparse(32, 16, 0.2, 61);
  ServeOptions opts;
  opts.workers = 2;
  Server server(opts);
  const DatasetId id = server.add_dataset(X);
  server.start();
  auto h = server.submit(pattern_request(id, X, 62));
  EXPECT_EQ(h.wait().kind, OutcomeKind::kCompleted);
  ServeStats first = server.drain();
  ServeStats second = server.drain();
  EXPECT_EQ(first.completed, second.completed);

  ServeHandle late = server.submit(pattern_request(id, X, 63));
  EXPECT_EQ(late.wait().kind, OutcomeKind::kRejected);
  EXPECT_EQ(late.wait().reject_reason, RejectReason::kQueueFull);
}

TEST(Server, DrainWithoutStartResolvesEverythingQueued) {
  la::CsrMatrix X = la::uniform_sparse(32, 16, 0.2, 71);
  ServeOptions opts;
  opts.workers = 1;
  Server server(opts);
  const DatasetId id = server.add_dataset(X);
  auto h1 = server.submit(pattern_request(id, X, 72));
  auto h2 = server.submit(pattern_request(id, X, 73));
  ServeStats stats = server.drain();
  EXPECT_EQ(h1.wait().kind, OutcomeKind::kRejected);
  EXPECT_EQ(h2.wait().kind, OutcomeKind::kRejected);
  EXPECT_EQ(stats.resolved(), stats.submitted);
}

TEST(Server, TagsRideThroughToOutcomes) {
  la::CsrMatrix X = la::uniform_sparse(32, 16, 0.2, 81);
  ServeOptions opts;
  opts.workers = 1;
  Server server(opts);
  const DatasetId id = server.add_dataset(X);
  ServeRequest req = pattern_request(id, X, 82);
  req.tag = 0xfeedULL;
  server.start();
  ServeHandle h = server.submit(std::move(req));
  EXPECT_EQ(h.wait().tag, 0xfeedULL);
  server.drain();
}

// --- SLO accounting ---------------------------------------------------------

ServeOutcome made_outcome(OutcomeKind kind, Priority priority, double queue_ms,
                          double modeled_ms, double deadline_ms = 0.0,
                          int worker = 0) {
  ServeOutcome o;
  o.kind = kind;
  o.priority = priority;
  o.queue_wait_ms = queue_ms;
  o.modeled_ms = modeled_ms;
  o.deadline_ms = deadline_ms;
  o.worker = worker;
  return o;
}

TEST(SloTracker, BucketsOutcomesByClassAndKind) {
  SloTracker slo;
  slo.record(made_outcome(OutcomeKind::kCompleted, Priority::kInteractive,
                          1.0, 3.0, /*deadline_ms=*/10.0));
  slo.record(made_outcome(OutcomeKind::kCompleted, Priority::kInteractive,
                          2.0, 9.0, /*deadline_ms=*/10.0));  // 11 > 10: miss
  slo.record(made_outcome(OutcomeKind::kDeadlineExceeded,
                          Priority::kInteractive, 5.0, 5.0,
                          /*deadline_ms=*/8.0));
  slo.record(made_outcome(OutcomeKind::kFailed, Priority::kBatch, 0.5, 2.0));
  ServeOutcome shed = made_outcome(OutcomeKind::kRejected, Priority::kBatch,
                                   0.0, 0.0, 0.0, /*worker=*/-1);
  shed.reject_reason = RejectReason::kShedding;
  slo.record(shed);
  ServeOutcome rej = made_outcome(OutcomeKind::kRejected, Priority::kNormal,
                                  0.0, 0.0, 0.0, /*worker=*/-1);
  rej.reject_reason = RejectReason::kQueueFull;
  slo.record(rej);

  const SloClassSnapshot hi = slo.snapshot(Priority::kInteractive);
  EXPECT_EQ(hi.completed, 2u);
  EXPECT_EQ(hi.deadline_exceeded, 1u);
  // All three interactive requests executed with a deadline; only the first
  // completed within it.
  EXPECT_EQ(hi.deadline_total, 3u);
  EXPECT_EQ(hi.deadline_hits, 1u);
  EXPECT_DOUBLE_EQ(hi.deadline_hit_ratio(), 1.0 / 3.0);
  EXPECT_EQ(hi.latency_count, 3u);
  EXPECT_DOUBLE_EQ(hi.max_ms, 11.0);
  EXPECT_DOUBLE_EQ(hi.queue_ms, 8.0);

  const SloClassSnapshot batch = slo.snapshot(Priority::kBatch);
  EXPECT_EQ(batch.failed, 1u);
  EXPECT_EQ(batch.shed, 1u);
  EXPECT_EQ(batch.rejected, 0u);
  // No deadline-carrying batch request: nothing missed, ratio is 1.
  EXPECT_DOUBLE_EQ(batch.deadline_hit_ratio(), 1.0);

  const SloClassSnapshot normal = slo.snapshot(Priority::kNormal);
  EXPECT_EQ(normal.rejected, 1u);
  EXPECT_EQ(normal.shed, 0u);
  EXPECT_EQ(normal.latency_count, 0u);  // never executed: no latency sample
}

TEST(SloTracker, DecomposesLatencyIntoBuckets) {
  SloTracker slo;
  ServeOutcome o = made_outcome(OutcomeKind::kCompleted, Priority::kNormal,
                                2.0, 10.0);
  o.resilience.verify_ms = 3.0;
  o.resilience.backoff_ms = 1.0;  // counted via overhead_ms()
  o.plan_host_ms = 0.25;
  slo.record(o);
  const SloClassSnapshot s = slo.snapshot(Priority::kNormal);
  EXPECT_DOUBLE_EQ(s.queue_ms, 2.0);
  EXPECT_DOUBLE_EQ(s.verify_ms, 3.0);
  EXPECT_DOUBLE_EQ(s.resilience_ms, o.resilience.overhead_ms());
  // exec = modeled - verify - resilience overhead; the four modeled buckets
  // sum back to the full latency the client saw.
  EXPECT_DOUBLE_EQ(s.exec_ms, 10.0 - 3.0 - o.resilience.overhead_ms());
  EXPECT_DOUBLE_EQ(s.queue_ms + s.exec_ms + s.verify_ms + s.resilience_ms,
                   12.0);
  EXPECT_DOUBLE_EQ(s.plan_host_ms, 0.25);
}

// --- Flight recorder --------------------------------------------------------

TEST(FlightRecorder, RingIsBoundedAndKeepsNewest) {
  FlightRecorder fr(/*capacity=*/4, /*max_incidents=*/2);
  for (std::uint64_t i = 0; i < 10; ++i) {
    FlightRecord rec;
    rec.tag = i;
    fr.record(rec);
  }
  EXPECT_EQ(fr.recorded(), 10u);
  const auto recent = fr.recent();
  ASSERT_EQ(recent.size(), 4u);  // bounded at capacity
  for (usize i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].tag, 6u + i) << "oldest-first order";
  }
}

TEST(FlightRecorder, IncidentBudgetCapturesFirstNButCountsAllFires) {
  FlightRecorder fr(/*capacity=*/4, /*max_incidents=*/2);
  FlightRecord rec;
  rec.tag = 7;
  fr.record(rec);
  EXPECT_TRUE(fr.fire(AnomalyKind::kDeadlineMiss, rec, 1.0));
  EXPECT_TRUE(fr.fire(AnomalyKind::kBreakerOpen, rec, 2.0));
  EXPECT_FALSE(fr.fire(AnomalyKind::kFailure, rec, 3.0));  // budget spent
  EXPECT_EQ(fr.fires(), 3u);
  const auto incidents = fr.incidents();
  ASSERT_EQ(incidents.size(), 2u);
  EXPECT_EQ(incidents[0].kind, AnomalyKind::kDeadlineMiss);
  EXPECT_EQ(incidents[0].trigger.tag, 7u);
  ASSERT_EQ(incidents[0].recent.size(), 1u);
  std::ostringstream os;
  fr.write_incidents_json(os);
  EXPECT_NE(os.str().find("\"deadline_miss\""), std::string::npos);
}

// --- Request tracing --------------------------------------------------------

TEST(Server, TracedRequestsCarryCompleteSpanTrees) {
  la::CsrMatrix X = la::uniform_sparse(64, 32, 0.15, 91);
  ServeOptions opts;
  opts.workers = 2;
  opts.request_tracing = true;
  Server server(opts);
  const DatasetId id = server.add_dataset(X);
  server.start();
  std::vector<ServeHandle> handles;
  for (int i = 0; i < 8; ++i) {
    ServeRequest req = pattern_request(
        id, X, 200u + i, static_cast<Priority>(i % kNumPriorities));
    req.tag = 900u + static_cast<std::uint64_t>(i);
    handles.push_back(server.submit(std::move(req)));
  }
  for (const ServeHandle& h : handles) {
    const ServeOutcome& o = h.wait();
    ASSERT_EQ(o.kind, OutcomeKind::kCompleted);
    ASSERT_NE(o.trace, nullptr);
    EXPECT_TRUE(o.trace->complete());
    EXPECT_EQ(o.trace->tag, o.tag);
    EXPECT_EQ(o.trace->kind, o.kind);
    EXPECT_EQ(o.trace->priority, o.priority);
    // THE oracle: the root span is sealed from the same numbers the client
    // reads, so the equality is bit-exact, not approximate.
    EXPECT_EQ(o.trace->root().dur_ms, o.queue_wait_ms + o.modeled_ms);
    std::ostringstream os;
    o.trace->write_json(os);
    EXPECT_NE(os.str().find("\"spans\""), std::string::npos);
  }
  server.drain();
}

TEST(Server, TracingOffLeavesOutcomesUntraced) {
  la::CsrMatrix X = la::uniform_sparse(32, 16, 0.2, 95);
  Server server;  // defaults: request_tracing = false
  const DatasetId id = server.add_dataset(X);
  server.start();
  ServeHandle h = server.submit(pattern_request(id, X, 96));
  EXPECT_EQ(h.wait().trace, nullptr);
  server.drain();
}

TEST(Server, CancelledBeforeStartStillSealsExactlyOneTree) {
  la::CsrMatrix X = la::uniform_sparse(32, 16, 0.2, 97);
  ServeOptions opts;
  opts.workers = 1;
  opts.request_tracing = true;
  Server server(opts);
  const DatasetId id = server.add_dataset(X);
  ServeHandle h = server.submit(pattern_request(id, X, 98));
  h.cancel();  // resolved on the client thread — no worker ever ran
  const ServeOutcome& o = h.wait();
  ASSERT_EQ(o.kind, OutcomeKind::kCancelled);
  ASSERT_NE(o.trace, nullptr);
  EXPECT_TRUE(o.trace->complete());
  EXPECT_EQ(o.trace->root().dur_ms, o.queue_wait_ms + o.modeled_ms);
  server.drain();
}

// Tracing is a pure observer: the same deterministic workload (one worker,
// queue filled before start) resolves to bit-identical modeled numbers with
// tracing+flight-recorder on and off.
TEST(Server, TracingEnabledIsBitIdenticalToDisabled) {
  la::CsrMatrix X = la::uniform_sparse(64, 32, 0.15, 99);
  const auto run = [&X](bool traced,
                        std::vector<std::pair<double, double>>& modeled) {
    ServeOptions opts;
    opts.workers = 1;
    opts.queue_capacity = 16;
    opts.request_tracing = traced;
    opts.flight_recorder = traced;
    Server server(opts);
    const DatasetId id = server.add_dataset(X);
    std::vector<ServeHandle> handles;
    for (int i = 0; i < 12; ++i) {
      handles.push_back(server.submit(pattern_request(
          id, X, 300u + i, static_cast<Priority>(i % kNumPriorities))));
    }
    server.start();
    for (const ServeHandle& h : handles) {
      const ServeOutcome& o = h.wait();
      if (traced) {
        ASSERT_NE(o.trace, nullptr);
        ASSERT_TRUE(o.trace->complete());
        ASSERT_EQ(o.trace->root().dur_ms, o.queue_wait_ms + o.modeled_ms);
      } else {
        ASSERT_EQ(o.trace, nullptr);
      }
      modeled.emplace_back(o.queue_wait_ms, o.modeled_ms);
    }
    server.drain();
  };
  std::vector<std::pair<double, double>> off;
  std::vector<std::pair<double, double>> on;
  ASSERT_NO_FATAL_FAILURE(run(false, off));
  ASSERT_NO_FATAL_FAILURE(run(true, on));
  ASSERT_EQ(off.size(), on.size());
  for (usize i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i].first, on[i].first) << "queue_wait_ms, request " << i;
    EXPECT_EQ(off[i].second, on[i].second) << "modeled_ms, request " << i;
  }
}

// --- ServerStatus -----------------------------------------------------------

TEST(Server, StatusSnapshotsClassesAndSerializes) {
  la::CsrMatrix X = la::uniform_sparse(64, 32, 0.15, 101);
  ServeOptions opts;
  opts.workers = 1;
  opts.request_tracing = true;
  opts.flight_recorder = true;
  Server server(opts);
  const DatasetId id = server.add_dataset(X);
  server.start();
  std::vector<ServeHandle> handles;
  for (int i = 0; i < 9; ++i) {
    handles.push_back(server.submit(pattern_request(
        id, X, 400u + i, static_cast<Priority>(i % kNumPriorities))));
  }
  for (const ServeHandle& h : handles) h.wait();
  // One doomed deadline fires the recorder: 0 modeled ms of budget cannot
  // cover any dispatch.
  ServeRequest doomed = pattern_request(id, X, 444, Priority::kInteractive);
  doomed.deadline_ms = 1e-9;
  EXPECT_EQ(server.submit(std::move(doomed)).wait().kind,
            OutcomeKind::kDeadlineExceeded);
  server.drain();

  const ServerStatus status = server.status();
  std::uint64_t executed = 0;
  for (int c = 0; c < kNumPriorities; ++c) {
    executed += status.classes[c].latency_count;
  }
  EXPECT_EQ(status.totals.completed, 9u);
  EXPECT_GE(executed, 9u);
  EXPECT_EQ(status.flight_recorded, server.flight().recorded());
  EXPECT_GE(status.anomalies_fired, 1u);  // the deadline miss fired

  std::ostringstream json;
  status.write_json(json);
  EXPECT_NE(json.str().find("\"classes\""), std::string::npos);
  EXPECT_NE(json.str().find("\"interactive\""), std::string::npos);
  std::ostringstream text;
  status.print(text);
  EXPECT_NE(text.str().find("interactive"), std::string::npos);

  std::ostringstream bundle;
  server.write_incident_bundle(bundle);
  EXPECT_NE(bundle.str().find("\"incident_bundles\""), std::string::npos);
}

}  // namespace
}  // namespace fusedml::serve
