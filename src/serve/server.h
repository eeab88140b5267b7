// The concurrent serving layer: a thread-pool request scheduler over the
// resilient fused-kernel stack.
//
// A Server owns a DevicePool (one private Device + OpRegistry per worker —
// see device_pool.h for why sharing is forbidden), a bounded
// multi-priority AdmissionQueue, and one pool-wide BreakerBoard installed
// on every worker's OpRegistry. Clients submit() ServeRequests (a pattern
// evaluation or a declarative script over a registered dataset) and get a
// ServeHandle back immediately; the exactly-one-outcome contract of
// serve_types.h governs everything after that.
//
// TIME. The server runs entirely on a MODELED clock, like the rest of the
// stack: now_ms() is total executed modeled milliseconds divided by the
// worker count — the pool's position on the modeled timeline under full
// utilization. Queue waits, deadlines, and breaker cooldowns are all read
// off this clock, so a serving bench reports modeled latency distributions
// that are reproducible run-to-run and comparable with the kernel benches.
//
// DEADLINES are enforced at four points: at dequeue (already expired →
// kDeadlineExceeded without executing), inside each dispatch (remaining
// headroom clamps the retry budget; see RetryPolicy.max_total_overhead_ms),
// between ops (the script runtime's modeled deadline), and post-execution
// (finished but past the deadline → the value is discarded and the request
// reports kDeadlineExceeded — a serving system cannot use a late answer).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <thread>
#include <vector>

#include "common/resilience.h"
#include "common/types.h"
#include "la/csr_matrix.h"
#include "serve/admission_queue.h"
#include "serve/circuit_breaker.h"
#include "serve/device_pool.h"
#include "serve/flight_recorder.h"
#include "serve/serve_types.h"
#include "serve/slo.h"

namespace fusedml::serve {

/// Snapshot of everything a server did. resolved() == submitted after
/// drain() — the no-request-lost invariant.
struct ServeStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_over_capacity = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;
  usize queue_high_water = 0;
  double modeled_busy_ms = 0.0;  ///< executed modeled time across workers
  double modeled_now_ms = 0.0;   ///< server clock at snapshot
  ResilienceStats resilience;    ///< aggregated over executed requests
  std::uint64_t breaker_opens = 0;  ///< opens + reopens across backends
  std::uint64_t breaker_skips = 0;
  // Silent-corruption defense (aggregated from the resilience totals and
  // the device-health board).
  std::uint64_t sdc_detected = 0;   ///< ABFT detections across requests
  std::uint64_t rollbacks = 0;      ///< solver checkpoint rollbacks
  std::uint64_t quarantines = 0;    ///< devices drained for confirmed SDCs
  std::uint64_t quarantine_reentries = 0;  ///< probations served
  std::uint64_t readmissions = 0;   ///< failed requests requeued with headroom

  std::uint64_t resolved() const {
    return completed + rejected_queue_full + rejected_over_capacity + shed +
           deadline_exceeded + cancelled + failed;
  }
  void print(std::ostream& os) const;
};

/// Operator-facing snapshot: the server totals plus per-priority-class SLO
/// state (latency percentiles, deadline-hit ratio, bucket decomposition)
/// and the flight recorder's anomaly counters. Exportable as text or JSON
/// (`--slo-report` surfaces it from benches and examples).
struct ServerStatus {
  ServeStats totals;
  SloClassSnapshot classes[kNumPriorities];
  std::uint64_t flight_recorded = 0;     ///< requests in/through the ring
  std::uint64_t anomalies_fired = 0;     ///< total anomaly fires
  std::uint64_t incidents_captured = 0;  ///< bundles retained (budgeted)

  void print(std::ostream& os) const;
  void write_json(std::ostream& os) const;
};

class Server {
 public:
  explicit Server(ServeOptions opts = {});
  /// Drains (joining workers) if the caller has not already.
  ~Server();

  /// Registers a dataset all requests may reference. Must be called before
  /// start() — datasets are immutable and lock-free once workers exist.
  DatasetId add_dataset(la::CsrMatrix X);
  const la::CsrMatrix& dataset(DatasetId id) const;

  /// Spawns the worker threads. Requests submitted BEFORE start() queue up
  /// (subject to the same admission control) and run once workers exist —
  /// which also makes shed/reject behavior deterministic to test.
  void start();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Admission-controlled enqueue; never blocks. The returned handle always
  /// resolves to exactly one outcome, even when admission rejects.
  ServeHandle submit(ServeRequest req);

  /// Arms (or, with all-zero rates, clears) a fault storm. Each worker
  /// swaps its own injector at its next request boundary — devices are
  /// never touched cross-thread mid-request.
  void inject_faults(const vgpu::FaultConfig& cfg);

  /// Graceful drain: stops admission (later submits resolve
  /// Rejected/kQueueFull), lets queued + in-flight requests finish, joins
  /// the workers, and returns the final stats. Idempotent.
  ServeStats drain();

  ServeStats stats() const;

  /// Per-class SLO accounting + anomaly counters on top of stats().
  ServerStatus status() const;
  /// The black-box ring + captured incidents (ServeOptions::flight_recorder).
  const FlightRecorder& flight() const { return flight_; }
  /// One JSON document: {"status": ..., "incident_bundles": ...} — the
  /// artifact --flight-recorder dumps from benches and examples.
  void write_incident_bundle(std::ostream& os) const;

  /// The pool's modeled clock (ms): executed modeled time / workers.
  double now_ms() const;

  BreakerBoard& breakers() { return breakers_; }
  DeviceHealthBoard& device_health() { return device_health_; }
  const DevicePool& pool() const { return pool_; }
  const ServeOptions& options() const { return opts_; }
  usize queue_high_water() const { return queue_.high_water(); }

 private:
  ServeOptions opts_;
  BreakerBoard breakers_;
  DeviceHealthBoard device_health_;
  DevicePool pool_;
  AdmissionQueue queue_;
  std::vector<la::CsrMatrix> datasets_;
  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};
  std::atomic<bool> drained_{false};
  mutable std::mutex drain_mutex_;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<double> executed_ms_{0.0};

  // Outcome counters, bumped by whichever thread wins each resolve.
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> rejected_queue_full_{0};
  std::atomic<std::uint64_t> rejected_over_capacity_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> readmissions_{0};

  mutable std::mutex agg_mutex_;  // guards the aggregate below
  ResilienceStats resilience_total_;

  // Observability: per-class SLO accounting (always on) and the flight
  // recorder (ring always records when enabled; anomaly detection uses
  // last-seen deltas of the breaker/health boards' monotonic counters).
  SloTracker slo_;
  FlightRecorder flight_;
  std::atomic<std::uint64_t> last_breaker_opens_{0};
  std::atomic<std::uint64_t> last_quarantines_{0};

  // Fault-storm plumbing: workers watch the generation counter and swap
  // their own injector between requests.
  std::atomic<std::uint64_t> fault_generation_{0};
  mutable std::mutex faults_mutex_;
  vgpu::FaultConfig pending_faults_;

  void worker_loop(int worker_id);
  ServeOutcome execute(WorkerSession& session, const PendingRequest& pending,
                       double wait_ms);
  /// `tracer` (may be null) is installed as the dispatch observer for the
  /// duration of the run, so registry anomalies land in the request's tree.
  ServeOutcome run_pattern(WorkerSession& session, const PatternEval& eval,
                           double budget_ms, kernels::VerifyPolicy verify,
                           RequestTracer* tracer);
  ServeOutcome run_script(WorkerSession& session, const ScriptEval& eval,
                          double budget_ms, kernels::VerifyPolicy verify,
                          RequestTracer* tracer);
  /// The request class's ABFT coverage (ServeOptions::verify_*).
  kernels::VerifyPolicy verify_for(Priority priority) const;
  /// Quarantined worker: hand the popped request back to the queue.
  /// Returns false if the queue refused (closing) — execute locally then.
  bool requeue(const PendingPtr& p);
  /// Books the winning outcome into the counters/aggregates (on_resolve).
  void count_outcome(const ServeOutcome& outcome);
  /// Resolves `pending` with a request-stamped outcome (loses gracefully if
  /// a cancellation already won).
  static void deliver(const PendingRequest& pending, ServeOutcome outcome);
  /// Rejection path shared by submit(): stamps reason + resolves.
  static void reject(const PendingRequest& pending, RejectReason reason,
                     const char* detail);
  /// Modeled working-set estimate for over-capacity admission.
  usize estimate_bytes(const ServeRequest& req) const;
  void advance_clock(double executed_ms);
};

}  // namespace fusedml::serve
