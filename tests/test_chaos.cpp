// The chaos/soak harness: many client threads hammer one Server with mixed
// workloads, priorities, deadlines, and random cancellations while seeded
// fault storms arm and clear mid-run. After a graceful drain it asserts the
// serving layer's global invariants:
//
//   1. EXACTLY-ONE-OUTCOME — every submit resolved precisely once, and the
//      per-kind counters sum to the submit count (no request lost).
//   2. BOUNDED QUEUE — the admission queue's high-water mark never exceeded
//      its capacity.
//   3. BIT-EXACT RESULTS — every completed pattern request equals a clean
//      single-threaded reference executor run on the backend it reported;
//      completed scripts that took no fallback equal a reference runtime.
//   4. BREAKERS RECOVER — the storm trips the fused breaker open; the clean
//      wave afterwards probes it closed again.
//   5. CLEAN SHUTDOWN — drain() resolves everything and joins all workers
//      (run under TSan in CI to certify the absence of data races).
#include <gtest/gtest.h>

#include <iostream>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "la/generate.h"
#include "kernels/fused_sparse.h"
#include "kernels/op_registry.h"
#include "obs/metrics.h"
#include "serve/request_trace.h"
#include "serve/server.h"
#include "ml/script_library.h"

namespace fusedml::serve {
namespace {

using kernels::Backend;

constexpr int kClients = 8;
constexpr int kRequestsPerClientPerWave = 12;

struct Issued {
  ServeHandle handle;
  ServeRequest request;  // replayed against the reference oracle
  bool cancelled = false;
};

// Deterministic per-client request mix: patterns (most), scripts (every
// 5th) cycling through ALL NINE ScriptKinds across clients, priorities
// cycling through all bands, a tight deadline every 4th, and a cancellation
// every 7th.
Issued issue_one(Server& server, DatasetId dataset, const la::CsrMatrix& X,
                 const std::vector<real>& labels, int client, int i) {
  const std::uint64_t seed =
      0xc0ffee + static_cast<std::uint64_t>(client) * 1000 +
      static_cast<std::uint64_t>(i);
  ServeRequest req;
  if (i % 5 == 4) {
    ScriptEval eval;
    eval.dataset = dataset;
    eval.kind = static_cast<ScriptKind>((client + i) % 9);
    eval.iterations = 2;
    eval.labels = labels;
    req.work = std::move(eval);
  } else {
    PatternEval eval;
    eval.dataset = dataset;
    eval.y = la::random_vector(static_cast<usize>(X.cols()), seed);
    req.work = std::move(eval);
  }
  req.priority = static_cast<Priority>(i % kNumPriorities);
  if (i % 4 == 3) req.deadline_ms = 0.05;
  req.tag = seed;

  Issued issued;
  issued.request = req;
  issued.handle = server.submit(std::move(req));
  if (i % 7 == 6) {
    issued.handle.cancel();
    issued.cancelled = true;
  }
  return issued;
}

// One wave: kClients threads submit concurrently, then everything issued is
// awaited before the wave returns (so storm phases do not bleed together).
void run_wave(Server& server, DatasetId dataset, const la::CsrMatrix& X,
              const std::vector<real>& labels, std::vector<Issued>& out) {
  std::vector<std::vector<Issued>> per_client(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClientPerWave; ++i) {
        per_client[(usize)c].push_back(
            issue_one(server, dataset, X, labels, c, i));
      }
    });
  }
  for (auto& t : clients) t.join();
  for (auto& batch : per_client) {
    for (auto& issued : batch) {
      issued.handle.wait();
      out.push_back(std::move(issued));
    }
  }
}

void verify_completed_against_oracle(const Issued& issued, usize session_bytes,
                                     const la::CsrMatrix& X) {
  const ServeOutcome& o = issued.handle.wait();
  ASSERT_EQ(o.kind, OutcomeKind::kCompleted);
  if (const auto* pattern = std::get_if<PatternEval>(&issued.request.work)) {
    // Retries are bit-exact and the outcome names the backend that finally
    // produced the value, so a clean executor on that backend is an oracle
    // even for requests that absorbed faults or degraded mid-flight.
    vgpu::Device ref_dev;
    kernels::OpRegistry ref(ref_dev);
    auto expect = ref.pattern(o.backend_used, pattern->alpha, X, pattern->v,
                              pattern->y, pattern->beta, pattern->z);
    ASSERT_EQ(o.value.size(), expect.value.size());
    for (usize j = 0; j < o.value.size(); ++j) {
      ASSERT_EQ(o.value[j], expect.value[j])
          << "pattern tag " << o.tag << " element " << j;
    }
    return;
  }
  // Scripts run many ops; a fallback mid-script changes which backend
  // produced which intermediate, so the single-runtime oracle only applies
  // to fallback-free completions.
  if (o.resilience.fallbacks != 0) return;
  const auto& script = std::get<ScriptEval>(issued.request.work);
  vgpu::Device ref_dev;
  sysml::RuntimeOptions ro;
  ro.device_capacity = session_bytes;
  sysml::Runtime rt(ref_dev, ro);
  // The reference is the SAME ScriptLibrary entry the worker dispatched —
  // any of the nine algorithms, replayed single-threaded on a clean device.
  ml::Algorithm algorithm = ml::Algorithm::kLrCg;
  switch (script.kind) {
    case ScriptKind::kLrCg: algorithm = ml::Algorithm::kLrCg; break;
    case ScriptKind::kLogregGd: algorithm = ml::Algorithm::kLogregGd; break;
    case ScriptKind::kGlm: algorithm = ml::Algorithm::kGlm; break;
    case ScriptKind::kSvm: algorithm = ml::Algorithm::kSvm; break;
    case ScriptKind::kHits: algorithm = ml::Algorithm::kHits; break;
    case ScriptKind::kAls: algorithm = ml::Algorithm::kAls; break;
    case ScriptKind::kKmeans: algorithm = ml::Algorithm::kKmeans; break;
    case ScriptKind::kPagerank: algorithm = ml::Algorithm::kPagerank; break;
    case ScriptKind::kMinibatchLogreg:
      algorithm = ml::Algorithm::kMinibatchLogreg;
      break;
  }
  const ml::ScriptSpec* spec =
      ml::find_script(algorithm, /*dense=*/false, script.plan);
  ASSERT_NE(spec, nullptr);
  sysml::ScriptResult expect =
      spec->run_sparse(rt, X, script.labels, script.iterations);
  ASSERT_EQ(o.value.size(), expect.weights.size());
  for (usize j = 0; j < o.value.size(); ++j) {
    ASSERT_EQ(o.value[j], expect.weights[j])
        << "script tag " << o.tag << " weight " << j;
  }
}

TEST(Chaos, SoakWithFaultStormsCancellationsAndDrain) {
  la::CsrMatrix X = la::uniform_sparse(96, 40, 0.12, 2026);
  auto labels = la::regression_labels(X, 7, 0.05);

  // Calibrate the breaker cooldown to this workload's own timescale: one
  // fully-faulted dispatch (all retries + backoff on both GPU tiers, then
  // the CPU completion) advances the pool clock by storm_dispatch_ms / 4,
  // so a cooldown of ~3 such dispatches guarantees the open window spans
  // several storm requests — each a counted breaker skip.
  double storm_dispatch_ms;
  {
    vgpu::FaultConfig always;
    always.kernel_fault_rate = 1.0;
    vgpu::Device probe_dev;
    vgpu::FaultInjector probe_inj(always);
    probe_dev.set_fault_injector(&probe_inj);
    kernels::OpRegistry probe(probe_dev);
    RetryPolicy retry;
    retry.max_attempts = 3;
    auto y = la::random_vector(static_cast<usize>(X.cols()), 1);
    storm_dispatch_ms = std::max(
        1e-4, probe
                  .execute_resilient(Backend::kFused, retry,
                                     [&](Backend b) {
                                       return probe.pattern(b, 1, X, {}, y, 0,
                                                            {});
                                     })
                  .modeled_ms);
  }

  ServeOptions opts;
  opts.workers = 4;
  opts.queue_capacity = 48;
  opts.retry.max_attempts = 3;
  opts.breaker.failure_threshold = 3;
  opts.breaker.cooldown_ms = 3.0 * storm_dispatch_ms;
  // Observability rides along under full chaos: every resolved request must
  // seal exactly one complete span tree, and the flight recorder must absorb
  // the anomaly storm without disturbing any invariant below.
  opts.request_tracing = true;
  opts.flight_recorder = true;
  Server server(opts);
  const DatasetId dataset = server.add_dataset(X);
  server.start();

  std::vector<Issued> issued;
  issued.reserve(3 * kClients * kRequestsPerClientPerWave);

  // Phase A: clean baseline traffic.
  run_wave(server, dataset, X, labels, issued);

  // Phase B: seeded fault storm — every GPU launch fails, so every fused
  // and baseline dispatch exhausts its retries and the fused breaker must
  // trip open pool-wide. Workers re-arm at their next request boundary,
  // before any phase-B request executes.
  vgpu::FaultConfig storm;
  storm.seed = 0xbad5eed;
  storm.kernel_fault_rate = 1.0;
  server.inject_faults(storm);
  run_wave(server, dataset, X, labels, issued);
  EXPECT_GT(server.breakers().total_opens(), 0u);

  // Phase C: storm cleared; clean traffic advances the modeled clock, and
  // once it passes the cooldown a half-open probe must close the fused
  // breaker again. Clean dispatches are far cheaper than storm dispatches,
  // so a bounded tail of extra requests walks the clock across the cooldown
  // deterministically. (The cusparse tier is only consulted while fused is
  // open, so its breaker may legitimately stay open once fused recovers.)
  server.inject_faults(vgpu::FaultConfig{});
  run_wave(server, dataset, X, labels, issued);
  for (int i = 0;
       i < 20000 &&
       server.breakers().state(Backend::kFused) != BreakerState::kClosed;
       ++i) {
    PatternEval eval;
    eval.dataset = dataset;
    eval.y = la::random_vector(static_cast<usize>(X.cols()), 9000u + i);
    ServeRequest req;
    req.work = std::move(eval);
    Issued extra;
    extra.request = req;
    extra.handle = server.submit(std::move(req));
    extra.handle.wait();
    issued.push_back(std::move(extra));
  }
  EXPECT_EQ(server.breakers().state(Backend::kFused), BreakerState::kClosed);
  EXPECT_GT(server.breakers().stats(Backend::kFused).closes, 0u);

  ServeStats stats = server.drain();

  // (1) Exactly one outcome per submit; nothing lost, nothing doubled.
  ASSERT_GE(issued.size(),
            static_cast<usize>(3 * kClients * kRequestsPerClientPerWave));
  EXPECT_EQ(stats.submitted, issued.size());
  EXPECT_EQ(stats.resolved(), stats.submitted);
  std::uint64_t kind_counts[5] = {0, 0, 0, 0, 0};
  for (const Issued& entry : issued) {
    ASSERT_TRUE(entry.handle.resolved());
    ASSERT_EQ(entry.handle.state()->resolutions(), 1)
        << "tag " << entry.handle.wait().tag;
    ++kind_counts[static_cast<int>(entry.handle.wait().kind)];
    // (1b) TRACE COMPLETENESS — whatever the outcome kind or interleaving,
    // the winning resolve sealed exactly one structurally complete span
    // tree whose root duration bit-matches the modeled latency the client
    // reads off the outcome (queue wait + execution, same doubles).
    const ServeOutcome& o = entry.handle.wait();
    ASSERT_NE(o.trace, nullptr) << "tag " << o.tag;
    ASSERT_TRUE(o.trace->complete()) << "tag " << o.tag;
    ASSERT_EQ(o.trace->tag, o.tag);
    ASSERT_EQ(o.trace->kind, o.kind);
    ASSERT_EQ(o.trace->root().dur_ms, o.queue_wait_ms + o.modeled_ms)
        << "tag " << o.tag;
  }
  EXPECT_EQ(kind_counts[static_cast<int>(OutcomeKind::kCompleted)],
            stats.completed);
  EXPECT_EQ(kind_counts[static_cast<int>(OutcomeKind::kRejected)],
            stats.rejected_queue_full + stats.rejected_over_capacity +
                stats.shed);
  EXPECT_EQ(kind_counts[static_cast<int>(OutcomeKind::kDeadlineExceeded)],
            stats.deadline_exceeded);
  EXPECT_EQ(kind_counts[static_cast<int>(OutcomeKind::kCancelled)],
            stats.cancelled);
  EXPECT_EQ(kind_counts[static_cast<int>(OutcomeKind::kFailed)],
            stats.failed);

  // (2) The queue never outgrew its bound.
  EXPECT_LE(stats.queue_high_water, opts.queue_capacity);

  // (3) Completed results are bit-exact against single-threaded oracles.
  int verified = 0;
  for (const Issued& entry : issued) {
    if (entry.handle.wait().kind != OutcomeKind::kCompleted) continue;
    verify_completed_against_oracle(entry, server.pool().session_memory_bytes(),
                                    X);
    ++verified;
  }
  EXPECT_GT(verified, 0);

  // (4) The storm was absorbed, not ignored: faults were seen, dispatches
  // degraded, and breakers skipped work pool-wide.
  EXPECT_GT(stats.resilience.faults_seen, 0u);
  EXPECT_GT(stats.resilience.fallbacks_to_cpu, 0u);
  EXPECT_GT(stats.breaker_skips, 0u);

  // (5) Drain resolved everything; a second drain is a no-op snapshot.
  ServeStats again = server.drain();
  EXPECT_EQ(again.submitted, stats.submitted);
}

// Diverging request: one script request in a fault storm overflows to Inf
// mid-solve. The policy (docs/RESILIENCE.md) is that a NonFiniteError ends
// the request kFailed — the math diverged, not the device, so the server
// does not re-admit it for another worker — while every other request in
// the storm completes bit-exact.
TEST(Chaos, DivergingRequestFailsOnceWhileTheStormCompletes) {
  la::CsrMatrix X = la::uniform_sparse(96, 40, 0.12, 2027);
  const auto labels = la::regression_labels(X, 7, 0.05);
  // Large enough that the scheduler places its products on the device,
  // where ABFT verification sees the overflow.
  la::CsrMatrix X_diverging = la::uniform_sparse(2000, 200, 0.05, 2028);
  const auto diverging_labels = la::regression_labels(X_diverging, 8, 0.05);
  for (real& v : X_diverging.values_mut()) v *= 1e110;

  ServeOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 64;
  opts.retry.max_attempts = 6;
  opts.verify_interactive = kernels::VerifyPolicy::kFull;
  opts.verify_normal = kernels::VerifyPolicy::kFull;
  opts.verify_batch = kernels::VerifyPolicy::kFull;
  opts.faults.seed = 0xd1e5;
  opts.faults.kernel_fault_rate = 0.2;
  opts.faults.transfer_fault_rate = 0.05;
  ASSERT_GT(opts.max_readmissions, 0);
  Server server(opts);
  const DatasetId dataset = server.add_dataset(X);
  const DatasetId diverging = server.add_dataset(X_diverging);
  server.start();

  std::vector<Issued> issued;
  for (int i = 0; i < 24; ++i) {
    ServeRequest req;
    if (i % 6 == 5) {
      ScriptEval eval;
      eval.dataset = dataset;
      eval.kind = ScriptKind::kLrCg;
      eval.iterations = 4;
      eval.labels = labels;
      req.work = std::move(eval);
    } else {
      PatternEval eval;
      eval.dataset = dataset;
      eval.y = la::random_vector(static_cast<usize>(X.cols()), 500u + i);
      req.work = std::move(eval);
    }
    req.priority = static_cast<Priority>(i % kNumPriorities);
    req.tag = static_cast<std::uint64_t>(i);
    Issued entry;
    entry.request = req;
    entry.handle = server.submit(std::move(req));
    issued.push_back(std::move(entry));
    if (i == 11) {
      ScriptEval bad;
      bad.dataset = diverging;
      bad.kind = ScriptKind::kLrCg;
      bad.iterations = 4;
      bad.labels = diverging_labels;
      ServeRequest bad_req;
      bad_req.work = std::move(bad);
      bad_req.tag = 999;
      Issued entry_bad;
      entry_bad.request = bad_req;
      entry_bad.handle = server.submit(std::move(bad_req));
      issued.push_back(std::move(entry_bad));
    }
  }
  // Await every outcome before draining: a draining queue refuses
  // re-admissions, which would hide one.
  for (const Issued& entry : issued) entry.handle.wait();
  ServeStats stats = server.drain();

  int diverged = 0;
  for (const Issued& entry : issued) {
    const ServeOutcome& o = entry.handle.wait();
    ASSERT_EQ(entry.handle.state()->resolutions(), 1);
    if (o.tag == 999) {
      ++diverged;
      EXPECT_EQ(o.kind, OutcomeKind::kFailed) << o.error;
      EXPECT_EQ(o.error_code, ErrorCode::kNonFinite) << o.error;
      continue;
    }
    ASSERT_EQ(o.kind, OutcomeKind::kCompleted) << "tag " << o.tag << ": "
                                               << o.error;
    verify_completed_against_oracle(entry, server.pool().session_memory_bytes(),
                                    X);
  }
  EXPECT_EQ(diverged, 1);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.readmissions, 0u) << "a divergence is never re-admitted";
  EXPECT_GT(stats.resilience.faults_seen, 0u) << "the storm was real";
}

// SDC soak: kernels LIE — a seeded injector perturbs one output element per
// drawn launch at a >=1% rate while raising NO error — and every request
// class runs full ABFT verification. The harness asserts the whole defense
// pipeline end-to-end under concurrency:
//
//   - every COMPLETED request (patterns and all nine script kinds) is
//     bit-exact against a fault-free single-threaded reference — silent
//     corruption never reaches a client;
//   - detections were actually made (the storm was not a no-op) and the
//     verification bill is accounted in the drained resilience totals;
//   - workers accumulating confirmed SDCs get quarantined, and quarantined
//     devices re-enter service after probation on the modeled clock;
//   - exactly-one-outcome and the bounded queue survive the requeue traffic
//     quarantine adds. Run under TSan in CI to certify the new paths.
TEST(Chaos, SilentCorruptionSoakDetectsRecoversAndQuarantines) {
  la::CsrMatrix X = la::uniform_sparse(96, 40, 0.12, 4242);
  auto labels = la::regression_labels(X, 7, 0.05);

  ServeOptions opts;
  opts.workers = 3;
  opts.queue_capacity = 96;
  opts.retry.max_attempts = 4;
  opts.verify_interactive = kernels::VerifyPolicy::kFull;
  opts.verify_normal = kernels::VerifyPolicy::kFull;
  opts.verify_batch = kernels::VerifyPolicy::kFull;
  opts.quarantine.enabled = true;
  opts.quarantine.sdc_threshold = 2;
  opts.quarantine.probation_ms = 0.25;
  // Tracing must survive the quarantine requeue path too: a request that
  // bounces across workers still seals exactly one tree.
  opts.request_tracing = true;
  opts.flight_recorder = true;
  Server server(opts);
  const DatasetId dataset = server.add_dataset(X);
  server.start();

  // No cancellations and no tight deadlines: this soak is about completed
  // values, so the mix maximizes completions while still cycling all three
  // priority bands (hence all three verify_* policies) and all nine
  // script kinds.
  const auto issue_sdc = [&](int client, int i) {
    ServeRequest req;
    const std::uint64_t seed = 0x5dc0 + static_cast<std::uint64_t>(client) *
                                            1000 +
                               static_cast<std::uint64_t>(i);
    if (i % 3 == 2) {
      ScriptEval eval;
      eval.dataset = dataset;
      eval.kind = static_cast<ScriptKind>((client + i) % 9);
      eval.iterations = 2;
      eval.labels = labels;
      req.work = std::move(eval);
    } else {
      PatternEval eval;
      eval.dataset = dataset;
      eval.y = la::random_vector(static_cast<usize>(X.cols()), seed);
      if (i % 2 == 0) {
        // Exercise the full Equation-1 shape (v and z arms) under
        // verification, not just the bare X^T(Xy) core.
        eval.v = la::random_vector(static_cast<usize>(X.rows()), seed + 1);
        eval.z = la::random_vector(static_cast<usize>(X.cols()), seed + 2);
        eval.alpha = 2;
        eval.beta = -1;
      }
      req.work = std::move(eval);
    }
    req.priority = static_cast<Priority>(i % kNumPriorities);
    req.tag = seed;
    Issued issued;
    issued.request = req;
    issued.handle = server.submit(std::move(req));
    return issued;
  };

  std::vector<Issued> issued;

  // Phase A: silent-corruption storm. 8% of launches return a perturbed
  // output with a clean status — only ABFT can notice. Two waves: each
  // worker must execute enough launches that accumulating sdc_threshold
  // confirmed detections is certain regardless of how the scheduler splits
  // the requests across workers.
  vgpu::FaultConfig storm;
  storm.seed = 0x51dc;
  storm.silent_fault_rate = 0.08;
  server.inject_faults(storm);
  for (int wave = 0; wave < 2; ++wave) {
    std::vector<std::vector<Issued>> per_client(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < kRequestsPerClientPerWave; ++i) {
          per_client[(usize)c].push_back(issue_sdc(c, i));
        }
      });
    }
    for (auto& t : clients) t.join();
    for (auto& batch : per_client) {
      for (auto& entry : batch) {
        entry.handle.wait();
        issued.push_back(std::move(entry));
      }
    }
  }

  // Phase B: storm cleared. Clean traffic advances the modeled clock past
  // the probation window, so every quarantined device must re-enter
  // service (bounded walk, same shape as the breaker-recovery phase).
  server.inject_faults(vgpu::FaultConfig{});
  for (int i = 0; i < 20000 && (server.device_health().quarantines() == 0 ||
                                server.device_health().reentries() == 0);
       ++i) {
    PatternEval eval;
    eval.dataset = dataset;
    eval.y = la::random_vector(static_cast<usize>(X.cols()), 77000u + i);
    ServeRequest req;
    req.work = std::move(eval);
    Issued extra;
    extra.request = req;
    extra.handle = server.submit(std::move(req));
    extra.handle.wait();
    issued.push_back(std::move(extra));
  }

  ServeStats stats = server.drain();
  std::cout << "sdc soak: submitted=" << stats.submitted
            << " completed=" << stats.completed
            << " failed=" << stats.failed
            << " sdc_detected=" << stats.sdc_detected
            << " verify_launches=" << stats.resilience.verify_launches
            << " rollbacks=" << stats.rollbacks
            << " readmissions=" << stats.readmissions
            << " quarantines=" << stats.quarantines
            << " reentries=" << stats.quarantine_reentries << "\n";

  // Exactly-one-outcome and balanced books, with requeue traffic in play.
  EXPECT_EQ(stats.submitted, issued.size());
  EXPECT_EQ(stats.resolved(), stats.submitted);
  for (const Issued& entry : issued) {
    ASSERT_TRUE(entry.handle.resolved());
    ASSERT_EQ(entry.handle.state()->resolutions(), 1)
        << "tag " << entry.handle.wait().tag;
    const ServeOutcome& o = entry.handle.wait();
    ASSERT_NE(o.trace, nullptr) << "tag " << o.tag;
    ASSERT_TRUE(o.trace->complete()) << "tag " << o.tag;
    ASSERT_EQ(o.trace->root().dur_ms, o.queue_wait_ms + o.modeled_ms)
        << "tag " << o.tag;
  }
  EXPECT_LE(stats.queue_high_water, opts.queue_capacity);

  // The storm was real and the defense engaged: detections happened, the
  // verification bill is on the books, and no detection leaked through —
  // every completed value is bit-exact against a fault-free reference.
  EXPECT_GT(stats.sdc_detected, 0u);
  EXPECT_GT(stats.resilience.verify_launches, 0u);
  EXPECT_GT(stats.resilience.verify_ms, 0.0);
  int verified = 0;
  for (const Issued& entry : issued) {
    if (entry.handle.wait().kind != OutcomeKind::kCompleted) continue;
    verify_completed_against_oracle(entry, server.pool().session_memory_bytes(),
                                    X);
    ++verified;
  }
  EXPECT_GT(verified, 0);

  // Quarantine fired and probation released: at least one device was
  // drained for confirmed SDCs and later re-entered service.
  EXPECT_GT(stats.quarantines, 0u);
  EXPECT_GT(stats.quarantine_reentries, 0u);
}

// Cancellation storm against a single worker: whatever the interleaving
// (cancel-before-dequeue, cancel-racing-execution, cancel-after-complete),
// every request resolves exactly once and the books balance.
TEST(Chaos, CancellationRacesNeverLoseOrDoubleResolve) {
  la::CsrMatrix X = la::uniform_sparse(64, 32, 0.15, 77);
  ServeOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 256;
  Server server(opts);
  const DatasetId dataset = server.add_dataset(X);

  constexpr int kN = 160;
  std::vector<ServeHandle> handles;
  handles.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    PatternEval eval;
    eval.dataset = dataset;
    eval.y = la::random_vector(static_cast<usize>(X.cols()), 500u + i);
    ServeRequest req;
    req.work = std::move(eval);
    handles.push_back(server.submit(std::move(req)));
  }
  // Every third request is cancelled. The first half of those cancels land
  // before the worker exists, so some cancel always wins the race however
  // fast the worker drains; a second thread sends the rest while it runs.
  constexpr int kSplit = 81;  // a multiple of 3, about half of kN
  for (int i = 0; i < kSplit; i += 3) handles[(usize)i].cancel();
  server.start();
  std::thread canceller([&] {
    for (int i = kSplit; i < kN; i += 3) handles[(usize)i].cancel();
  });
  canceller.join();
  ServeStats stats = server.drain();
  for (const ServeHandle& h : handles) {
    ASSERT_TRUE(h.resolved());
    ASSERT_EQ(h.state()->resolutions(), 1);
  }
  EXPECT_EQ(stats.resolved(), stats.submitted);
  EXPECT_GT(stats.cancelled, 0u);
  EXPECT_GT(stats.completed, 0u);
}

// Serve workers share datasets: concurrent first launches on one matrix must
// build its warp table exactly once and all charge the same traffic.
TEST(Chaos, ConcurrentColdLaunchesBuildOneWarpTable) {
  obs::metrics().enable();
  obs::metrics().reset();
  const auto X = la::kdd_like(3000, 400, 20.0, 1.5, 77);
  const auto y = la::random_vector(static_cast<usize>(X.cols()), 78);
  constexpr int kThreads = 4;
  std::vector<kernels::OpResult> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      vgpu::Device dev;
      results[static_cast<usize>(t)] =
          kernels::fused_pattern_sparse(dev, 1, X, {}, y, 0, {});
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(obs::metrics().counter("kernels.warp_table_builds").value(), 1u);
  EXPECT_EQ(obs::metrics().counter("kernels.warp_table_hits").value(),
            static_cast<std::uint64_t>(kThreads - 1));
  for (const auto& r : results) {
    EXPECT_EQ(r.value, results[0].value);
    EXPECT_EQ(r.counters.gld_transactions,
              results[0].counters.gld_transactions);
    EXPECT_EQ(r.counters.l2_hit_transactions,
              results[0].counters.l2_hit_transactions);
    EXPECT_EQ(r.counters.tex_transactions,
              results[0].counters.tex_transactions);
  }
  obs::metrics().reset();
  obs::metrics().disable();
}

}  // namespace
}  // namespace fusedml::serve
