// Vocabulary of the concurrent serving layer: what a request asks for, what
// its submission resolves to, and the handle a client holds while the pool
// works.
//
// The contract the chaos harness asserts is EXACTLY-ONE-OUTCOME: every
// submit() returns a handle whose RequestState resolves to precisely one
// ServeOutcome — completed, rejected at admission (queue full / over
// capacity / shed for a higher priority), deadline-exceeded, cancelled, or
// failed. No outcome is ever lost and none is delivered twice, no matter
// how clients, workers, cancellations, and fault storms interleave.
//
// Deadlines are MODELED milliseconds on the server's modeled clock (see
// server.h), consistent with the rest of the stack: backoff, kernel time,
// and queue wait are all the same currency, so a deadline bounds the total
// modeled latency of a request rather than host wall-clock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/error.h"
#include "common/resilience.h"
#include "common/types.h"
#include "kernels/op_registry.h"
#include "sysml/expr.h"

namespace fusedml::serve {

/// Scheduling classes, lowest to highest. Admission sheds from the lowest
/// band first; workers always pop the highest non-empty band (FIFO within a
/// band).
enum class Priority : int { kBatch = 0, kNormal = 1, kInteractive = 2 };
constexpr int kNumPriorities = 3;
const char* to_string(Priority priority);

/// How one submitted request ended.
enum class OutcomeKind {
  kCompleted,         ///< executed; value holds the result
  kRejected,          ///< never executed — admission control turned it away
  kDeadlineExceeded,  ///< modeled deadline spent (queued or mid-execution)
  kCancelled,         ///< client cancelled before a result was delivered
  kFailed,            ///< executed but every backend tier was exhausted
};
const char* to_string(OutcomeKind kind);

/// Why admission control rejected (valid when kind == kRejected).
enum class RejectReason {
  kQueueFull,     ///< bounded queue full of equal-or-higher priority work
                  ///< (also used for submits during/after drain)
  kOverCapacity,  ///< modeled working set exceeds a worker session's memory
  kShedding,      ///< evicted from the queue to admit higher-priority work
};
const char* to_string(RejectReason reason);

/// Index of a matrix registered with Server::add_dataset. Datasets are
/// shared read-only across all workers — requests reference them by id
/// instead of carrying a matrix copy.
using DatasetId = std::uint32_t;

/// Pattern-evaluation workload: w = alpha * X^T (v ⊙ (X y)) + beta*z on a
/// registered dataset (v / z optional, as in OpRegistry::pattern).
struct PatternEval {
  DatasetId dataset = 0;
  real alpha = 1;
  real beta = 0;
  std::vector<real> y;
  std::vector<real> v;
  std::vector<real> z;
};

/// Declarative-script workload executed on a per-request sysml::Runtime
/// bound to the worker's device. Every algorithm in the generated
/// ScriptLibrary (ml/script_library.h) is servable; requests pick the plan
/// mode the library prepares the program with.
enum class ScriptKind {
  kLrCg,
  kLogregGd,
  kGlm,
  kSvm,
  kHits,
  kAls,
  kKmeans,
  kPagerank,
  kMinibatchLogreg,
};
const char* to_string(ScriptKind kind);
struct ScriptEval {
  DatasetId dataset = 0;
  ScriptKind kind = ScriptKind::kLrCg;
  int iterations = 3;        ///< outer-loop cap (0 = algorithm default)
  sysml::PlanMode plan = sysml::PlanMode::kPlanner;
  std::vector<real> labels;  ///< ignored by kHits
};

using Workload = std::variant<PatternEval, ScriptEval>;

struct ServeRequest {
  Workload work;
  Priority priority = Priority::kNormal;
  /// Modeled deadline for queue wait + execution (0 = none). Threaded into
  /// the executing layer's retry budget so a doomed request stops retrying
  /// instead of completing six backoffs per backend tier.
  double deadline_ms = 0.0;
  /// Caller-owned tag carried through to the outcome (chaos bookkeeping).
  std::uint64_t tag = 0;
};

struct RequestTraceTree;  // request_trace.h — per-request span tree
class RequestTracer;

/// Everything the client learns from one resolved request.
struct ServeOutcome {
  OutcomeKind kind = OutcomeKind::kFailed;
  RejectReason reject_reason = RejectReason::kQueueFull;
  std::uint64_t tag = 0;
  std::vector<real> value;      ///< kCompleted only
  double modeled_ms = 0.0;      ///< modeled execution time incl. overheads
  double queue_wait_ms = 0.0;   ///< modeled wait before execution started
  kernels::Backend backend_used = kernels::Backend::kCpu;
  ResilienceStats resilience;   ///< faults absorbed producing this outcome
  std::string error;            ///< kFailed / kDeadlineExceeded detail
  /// The typed cause behind `error` (kGeneric when none was thrown). The
  /// server re-admits a kFailed outcome only when this is not kNonFinite.
  ErrorCode error_code = ErrorCode::kGeneric;
  int worker = -1;              ///< executing worker (-1: never executed)
  Priority priority = Priority::kNormal;  ///< stamped from the request
  double deadline_ms = 0.0;     ///< the request's effective deadline
  /// Host wall-clock ms the fusion planner spent on this request (script
  /// workloads; 0 on plan-cache hits and pattern evals). Host work — NOT
  /// part of modeled_ms; see sysml::RuntimeStats::plan_host_ms.
  double plan_host_ms = 0.0;
  /// The request's sealed span tree — present iff the server was built
  /// with ServeOptions::request_tracing. Immutable and shareable.
  std::shared_ptr<const RequestTraceTree> trace;
};

/// Shared resolution slot behind a ServeHandle. resolve() is exactly-once:
/// the first caller wins, every later attempt is a no-op returning false —
/// this is what makes cancellation racing completion safe.
class RequestState {
 public:
  /// Delivers the outcome if none was delivered yet. Returns true iff this
  /// call won; the winner also runs the on_resolve callback (outside the
  /// lock) and wakes every waiter.
  bool resolve(ServeOutcome outcome);

  /// Blocks until resolved; the reference stays valid for the state's life.
  const ServeOutcome& wait();

  bool resolved() const;
  /// How many resolve() calls won — the exactly-one-outcome invariant says
  /// this is 1 for every submitted request after drain.
  int resolutions() const { return wins_.load(std::memory_order_relaxed); }

  void request_cancel() { cancel_.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return cancel_.load(std::memory_order_relaxed);
  }

  /// Installed by the server before the state is visible to any resolver;
  /// invoked exactly once, by the winning resolve().
  void set_on_resolve(std::function<void(const ServeOutcome&)> cb) {
    on_resolve_ = std::move(cb);
  }

  /// Stamped at submit; copied onto whichever outcome wins, so even a
  /// cancellation resolved by the client thread carries the request's tag.
  void set_tag(std::uint64_t tag) { tag_ = tag; }
  /// Stamped at submit like the tag: the winning outcome carries the
  /// request's class and effective deadline, which is what lets the SLO
  /// tracker bucket EVERY outcome kind per priority class — including
  /// client-side cancellations that never saw the server again.
  void set_priority(Priority priority) { priority_ = priority; }
  void set_deadline(double deadline_ms) { deadline_ms_ = deadline_ms; }

  /// Installs the request's tracer (submit only, before the state is
  /// visible to resolvers). The winning resolve seals it onto the outcome,
  /// so exactly one tree exists per resolved request.
  void set_tracer(std::shared_ptr<RequestTracer> tracer) {
    tracer_ = std::move(tracer);
  }
  const std::shared_ptr<RequestTracer>& tracer() const { return tracer_; }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool resolved_ = false;
  ServeOutcome outcome_;
  std::atomic<bool> cancel_{false};
  std::atomic<int> wins_{0};
  std::uint64_t tag_ = 0;
  Priority priority_ = Priority::kNormal;
  double deadline_ms_ = 0.0;
  std::shared_ptr<RequestTracer> tracer_;
  std::function<void(const ServeOutcome&)> on_resolve_;
};

/// What a client holds after submit(). Copyable; all copies share one
/// RequestState.
class ServeHandle {
 public:
  ServeHandle() = default;
  explicit ServeHandle(std::shared_ptr<RequestState> state)
      : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }
  const ServeOutcome& wait() const { return state_->wait(); }
  bool resolved() const { return state_->resolved(); }

  /// Requests cancellation and immediately resolves kCancelled if the
  /// request has not resolved yet. A request already executing keeps
  /// running on its worker, but its result is abandoned (the worker's
  /// resolve loses the race).
  void cancel() const;

  const std::shared_ptr<RequestState>& state() const { return state_; }

 private:
  std::shared_ptr<RequestState> state_;
};

/// One queued submission: the request plus its resolution slot and its
/// position on the modeled clock.
struct PendingRequest {
  ServeRequest request;
  std::shared_ptr<RequestState> state;
  double submit_ms = 0.0;  ///< server modeled clock at submit
  std::uint64_t seq = 0;   ///< global submission order
  /// Times a worker failed this request and handed it back to the queue
  /// (deadline-aware re-admission). Only the executing worker mutates it,
  /// and the queue hand-off orders those accesses.
  int attempts = 0;
};
using PendingPtr = std::shared_ptr<PendingRequest>;

}  // namespace fusedml::serve
