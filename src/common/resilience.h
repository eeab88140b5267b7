// Resilience accounting and policy knobs shared by every layer that can
// recover from injected (or, on real hardware, actual) faults: the pattern
// executor, the streaming pipeline, and the sysml memory manager.
//
// All backoff is MODELED time — it is charged to the cost model alongside
// kernel and transfer time so benches report the overhead of a retry policy
// honestly, but no host thread ever sleeps.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace fusedml {

/// How a resilient layer responds to transient faults and OOM.
struct RetryPolicy {
  /// Attempts per backend (first try + retries) before degrading.
  int max_attempts = 6;
  /// Modeled exponential backoff: base * multiplier^(attempt-1), capped.
  double backoff_base_ms = 0.05;
  double backoff_multiplier = 2.0;
  double backoff_cap_ms = 5.0;
  /// Permit fused -> baseline-GPU -> CPU degradation when retries on the
  /// current backend are exhausted (or the device reports OOM).
  bool allow_backend_fallback = true;
  /// Total modeled retry budget for one dispatch: once the overhead already
  /// burned (wasted attempts + backoff) reaches this, the dispatch stops
  /// retrying AND stops degrading and rethrows the last fault immediately.
  /// 0 = unbounded (the pre-budget behavior). The serving layer sets this to
  /// a request's remaining deadline so an op on a doomed request fails fast
  /// instead of spending six backoffs per backend tier.
  double max_total_overhead_ms = 0.0;

  /// True once `spent_overhead_ms` of wasted-attempt + backoff time exceeds
  /// the budget (always false when unbounded).
  bool budget_exhausted(double spent_overhead_ms) const {
    return max_total_overhead_ms > 0.0 &&
           spent_overhead_ms >= max_total_overhead_ms;
  }

  /// Modeled wait before re-attempt number `attempt` (1-based: the wait
  /// after the attempt-th failure).
  double backoff_ms(int attempt) const {
    double b = backoff_base_ms;
    for (int i = 1; i < attempt; ++i) b *= backoff_multiplier;
    return b < backoff_cap_ms ? b : backoff_cap_ms;
  }

  /// The policy for one dispatch under a modeled deadline, given the
  /// `spent_ms` already on the caller's clock. A `deadline_ms` of 0 means
  /// none: the policy comes back unchanged. Once the clock has reached the
  /// deadline this throws DeadlineError instead of dispatching; otherwise
  /// the retry budget is clamped to the time remaining, so a fault storm
  /// cannot back off past the deadline inside one op.
  RetryPolicy within_deadline(double spent_ms, double deadline_ms) const;
};

/// What one resilient layer observed and did. Aggregates with += so ops,
/// solvers, and whole runs can all surface the same shape.
struct ResilienceStats {
  std::uint64_t faults_seen = 0;  ///< injected faults this layer absorbed
  std::uint64_t retries = 0;      ///< re-attempts after a transient fault
  std::uint64_t fallbacks = 0;    ///< backend/streaming degradations taken
  /// Degradations split by the tier landed on, so breaker decisions and
  /// RunReport can tell WHICH tier is flapping: fused -> baseline-GPU
  /// degradations land on a baseline backend; a second exhaustion (or a
  /// baseline start) lands on the CPU. fallbacks_to_baseline +
  /// fallbacks_to_cpu == fallbacks for registry dispatches (streaming-path
  /// fallbacks count only in the total).
  std::uint64_t fallbacks_to_baseline = 0;
  std::uint64_t fallbacks_to_cpu = 0;
  /// Backends skipped without an attempt because a circuit breaker held
  /// them open (serving-pool dispatch only).
  std::uint64_t breaker_skips = 0;
  std::uint64_t recoveries = 0;   ///< ops that succeeded after >=1 fault
  /// Silent corruptions an ABFT check caught (each also counts as a
  /// fault_seen once it is rethrown into the retry loop).
  std::uint64_t sdc_detected = 0;
  /// Solver-level checkpoint rollbacks taken (ml/script_library solvers).
  std::uint64_t rollbacks = 0;
  /// Verification launches issued by the op that PRODUCED the surviving
  /// value — counted exactly once per dispatch, on the successful attempt.
  /// Verification burned by failed (corrupted) attempts lands in wasted_ms
  /// via the fault's penalty instead, so retries never double-report.
  std::uint64_t verify_launches = 0;
  double verify_ms = 0.0;         ///< modeled cost of those checks
  double backoff_ms = 0.0;        ///< modeled backoff wait charged
  double wasted_ms = 0.0;         ///< modeled time burned by failed attempts

  bool any() const {
    return faults_seen != 0 || retries != 0 || fallbacks != 0 ||
           recoveries != 0 || breaker_skips != 0 || sdc_detected != 0 ||
           rollbacks != 0 || verify_launches != 0;
  }
  /// Total modeled overhead this layer added versus a fault-free run.
  /// Verification cost is NOT included: it is paid on clean runs too (it is
  /// the price of the verify policy, not of a fault) and is reported
  /// separately as verify_ms.
  double overhead_ms() const { return backoff_ms + wasted_ms; }

  ResilienceStats& operator+=(const ResilienceStats& o) {
    faults_seen += o.faults_seen;
    retries += o.retries;
    fallbacks += o.fallbacks;
    fallbacks_to_baseline += o.fallbacks_to_baseline;
    fallbacks_to_cpu += o.fallbacks_to_cpu;
    breaker_skips += o.breaker_skips;
    recoveries += o.recoveries;
    sdc_detected += o.sdc_detected;
    rollbacks += o.rollbacks;
    verify_launches += o.verify_launches;
    verify_ms += o.verify_ms;
    backoff_ms += o.backoff_ms;
    wasted_ms += o.wasted_ms;
    return *this;
  }
};

/// End-of-run resilience summary: per-source stats plus the merged total,
/// printable as one block (benches and examples call print()).
class RunReport {
 public:
  explicit RunReport(std::string label = "run") : label_(std::move(label)) {}

  void add(const std::string& source, const ResilienceStats& stats) {
    sources_.emplace_back(source, stats);
    total_ += stats;
  }

  const ResilienceStats& total() const { return total_; }

  void print(std::ostream& os) const;

 private:
  std::string label_;
  std::vector<std::pair<std::string, ResilienceStats>> sources_;
  ResilienceStats total_;
};

}  // namespace fusedml
