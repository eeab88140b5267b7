// The unified operator registry — one place that knows, for every logical
// operation, which kernel implements it on which backend.
//
// Every caller routes through this registry: sysml::Runtime's op_* bodies
// (the one executor whole solvers run on), and the single-op callers that
// need no scheduler — serve's pattern requests, kernel-level benches and
// tests — which call a body under execute_resilient directly. The
// backend-switch body for each op exists exactly once, and so does the
// retry/backoff/degradation loop (execute_resilient). Every GPU body runs
// the same device frame — arm ABFT, launch, apply injected corruption,
// verify — through on_device(), except in-place axpy/scal, which spell it
// out around their input sums.
// Each matrix op has one body for both storages: it takes a la::MatrixRef,
// and only the device kernel it launches (and the kernel name a trace
// shows) is chosen by storage. What a plan of these ops costs is the
// fusion planner's concern: its cost table is keyed by sysml::OpKind
// (sysml/fusion_planner.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/resilience.h"
#include "kernels/abft.h"
#include "kernels/cpu_backend.h"
#include "kernels/ewise_program.h"
#include "la/matrix_ref.h"
#include "vgpu/device.h"

namespace fusedml::kernels {

enum class Backend {
  kFused,       ///< the paper's fused kernels
  kCusparse,    ///< operator-at-a-time with explicit-transpose sparse X^T
  kBidmatGpu,   ///< operator-at-a-time with atomic-scatter sparse X^T
  kCpu,         ///< host CPU (MKL-like)
};

std::string to_string(Backend backend);

/// Degradation order on repeated failure: fused -> baseline GPU -> CPU.
/// The CPU is terminal (it cannot fault) — returns nullopt there.
std::optional<Backend> fallback_backend(Backend backend);

/// Pool-level backend health gate consulted by execute_resilient. A serving
/// pool installs one shared implementation (a circuit-breaker board) on
/// every worker's registry so a flapping backend is skipped POOL-WIDE for a
/// cooldown window instead of each request rediscovering the fault:
///   - allow(b) == false  => skip backend b without attempting it (counted
///     as a breaker_skip + fallback in ResilienceStats) and degrade;
///   - on_success(b)      => an attempt on b returned cleanly;
///   - on_failure(b)      => b was abandoned (retries exhausted, OOM, or
///     terminal failure).
/// Implementations must be thread-safe: many worker registries call in
/// concurrently. The CPU tier is terminal and must always be allowed.
class BackendHealth {
 public:
  virtual ~BackendHealth() = default;
  virtual bool allow(Backend backend) = 0;
  virtual void on_success(Backend backend) = 0;
  virtual void on_failure(Backend backend) = 0;
};

/// One noteworthy thing that happened inside a resilient dispatch — the
/// vocabulary a request-scoped trace needs to explain WHY a dispatch took
/// longer than its clean cost: a fault absorbed, a retry backoff charged, a
/// degradation to a lower tier, a breaker skip, an ABFT detection + forced
/// recompute, or the retry budget running dry. Clean attempts are NOT
/// reported — the modeled timeline already carries them — so an observer
/// sees only the anomalies.
struct DispatchEvent {
  enum class Kind {
    kFault,            ///< a typed fault was absorbed (detail = error text)
    kRetryBackoff,     ///< modeled backoff charged before a re-attempt
    kFallback,         ///< degraded from `backend` to `to`
    kBreakerSkip,      ///< `backend` skipped without an attempt (breaker open)
    kSdcDetected,      ///< an ABFT check caught silent corruption (recompute)
    kBudgetExhausted,  ///< retry budget/deadline gone; dispatch failed fast
  };
  Kind kind{};
  Backend backend{};     ///< tier the event happened on (or was skipped)
  Backend to{};          ///< kFallback / kBreakerSkip: the tier landed on
  double modeled_ms = 0.0;  ///< backoff / penalty charged by this event
  std::string detail;    ///< error text for faults (empty otherwise)
};

/// Observer for DispatchEvents, installed per registry (single-threaded with
/// respect to that registry's dispatches — a serving worker installs its
/// request's trace context here for the duration of one request). Null (the
/// default) costs one pointer load per anomaly, zero on clean dispatches.
class DispatchObserver {
 public:
  virtual ~DispatchObserver() = default;
  virtual void on_dispatch_event(const DispatchEvent& event) = 0;
};

/// Everything one registry dispatch produces. Identical accounting across
/// backends so callers book CPU and GPU outcomes through the same code.
struct KernelOutcome {
  std::vector<real> value;
  double modeled_ms = 0.0;   ///< modeled device/CPU time incl. retry overhead
  double wall_ms = 0.0;      ///< host wall-clock of the functional run
  std::uint64_t launches = 0;
  vgpu::MemCounters counters;  ///< zero for the CPU backend
  std::string kernel;          ///< which implementation ran
  Backend backend_used{};      ///< after any degradation
  ResilienceStats resilience;  ///< faults absorbed while producing value
  /// Of `launches`/`modeled_ms`, the share spent on ABFT verification of
  /// the SUCCESSFUL attempt (zero when the verify policy skipped this op).
  /// launches/modeled_ms include these — the device really issued them —
  /// so callers that compare against plan predictions subtract them.
  std::uint64_t verify_launches = 0;
  double verify_ms = 0.0;
};

/// One registry per device: owns the CPU backend and exposes each logical op
/// as a single backend-switch body. All methods may throw the typed faults of
/// common/error.h when a fault injector is armed — wrap calls in
/// execute_resilient to absorb them under a RetryPolicy.
class OpRegistry {
 public:
  explicit OpRegistry(vgpu::Device& dev) : dev_(dev) {}

  // --- Single-attempt dispatch bodies (one switch per op, shared by every
  // caller; no retry logic here) -------------------------------------------
  KernelOutcome transposed_product(Backend b, la::MatrixRef X,
                                   std::span<const real> y, real alpha);
  KernelOutcome product(Backend b, la::MatrixRef X, std::span<const real> y);
  KernelOutcome pattern(Backend b, real alpha, la::MatrixRef X,
                        std::span<const real> v, std::span<const real> y,
                        real beta, std::span<const real> z);
  KernelOutcome axpy(Backend b, real alpha, std::span<const real> x,
                     std::span<real> y);
  KernelOutcome scal(Backend b, real alpha, std::span<real> x);
  KernelOutcome dot(Backend b, std::span<const real> x,
                    std::span<const real> y);
  KernelOutcome nrm2(Backend b, std::span<const real> x);
  KernelOutcome ewise_mul(Backend b, std::span<const real> x,
                          std::span<const real> y);
  KernelOutcome map(Backend b, std::span<const real> x, real (*f)(real),
                    const std::string& name);
  /// Generated streaming kernel for a fused elementwise chain.
  KernelOutcome fused_ewise(Backend b, const EwiseProgram& program,
                            std::span<const std::span<const real>> inputs);

  // Sparsity-exploiting template family (kernels/fused_row.h): the unfused
  // building blocks and the fused row / sddmm kernels.
  KernelOutcome outer_map(Backend b, std::span<const real> u,
                          std::span<const real> v, real (*f)(real),
                          const std::string& name);
  KernelOutcome sparse_mask(Backend b, la::MatrixRef X,
                            std::span<const real> om);
  KernelOutcome masked_product(Backend b, la::MatrixRef X,
                               std::span<const real> vals,
                               std::span<const real> z);
  KernelOutcome fused_row(Backend b, la::MatrixRef X, std::span<const real> y,
                          const EwiseProgram& program,
                          std::span<const std::span<const real>> ext);
  KernelOutcome fused_sddmm(Backend b, la::MatrixRef X, std::span<const real> u,
                            std::span<const real> v, std::span<const real> z,
                            real (*f)(real), const std::string& name);

  /// Runs `attempt` under the retry/backoff/fallback policy, starting from
  /// `preferred`. `inout` names caller memory the op mutates in place; it
  /// is snapshotted so a failed attempt is rolled back before the retry.
  /// `session` (optional) accumulates this call's resilience stats into a
  /// caller-owned running total.
  KernelOutcome execute_resilient(
      Backend preferred, const RetryPolicy& policy,
      const std::function<KernelOutcome(Backend)>& attempt,
      std::span<real> inout = {}, ResilienceStats* session = nullptr);

  /// Installs a pool-level backend health gate (circuit breakers) consulted
  /// by execute_resilient; nullptr (the default) disables gating. Not owned;
  /// must outlive the registry while set.
  void set_health(BackendHealth* health) { health_ = health; }
  BackendHealth* health() const { return health_; }

  /// Installs a dispatch-anomaly observer (request-scoped tracing). Not
  /// owned; must outlive the registry while set. The serving layer installs
  /// its request trace context here around each request's execution.
  void set_dispatch_observer(DispatchObserver* observer) {
    observer_ = observer;
  }

  /// ABFT verification of GPU results (kernels/abft.h). kOff (the default)
  /// adds zero work; kSpot/kFull make sampled/every GPU dispatches prove
  /// their output against a checksum invariant, turning silent corruption
  /// into a typed SilentCorruptionError that execute_resilient recomputes.
  void set_verify_policy(VerifyPolicy policy) { sdc_.set_policy(policy); }
  VerifyPolicy verify_policy() const { return sdc_.policy(); }
  AbftVerifier& verifier() { return sdc_; }

  vgpu::Device& device() { return dev_; }
  const CpuBackend& cpu() const { return cpu_; }

  /// Streaming pattern kernels (kernels/streaming.h) launch on the device
  /// OUTSIDE the registry's dispatch bodies, so their silent-corruption
  /// draws are not consumed above. Callers that drive streaming directly
  /// (Runtime's out-of-core branch) call this on the merged result: any
  /// pending draws perturb it exactly like a dispatch body would. Returns
  /// true if a corruption was applied.
  bool consume_streamed_corruption(std::vector<real>& value);

 private:
  vgpu::Device& dev_;
  CpuBackend cpu_;
  BackendHealth* health_ = nullptr;
  DispatchObserver* observer_ = nullptr;
  AbftVerifier sdc_{dev_, cpu_};

  /// The device frame every non-in-place GPU body shares: arm the verifier
  /// (before the launch, so spot sampling counts dispatches), run `launch`,
  /// consume any injected silent corruption, and — when this dispatch was
  /// sampled — fold `check(value)`'s charge into the outcome. axpy/scal
  /// keep their own frame: they must checksum their inputs before the
  /// launch overwrites them.
  template <typename Launch, typename Check>
  KernelOutcome on_device(Launch&& launch, Check&& check);

  /// Consume side of the device's silent-corruption handshake: if any
  /// launch of the op that produced `out` drew kSilentCorruption, perturb
  /// one deterministic seeded element of the output (and mirror it into the
  /// op's in-place buffer, if any, so callers see the corruption too).
  void apply_injected_corruption(KernelOutcome& out, std::span<real> in_place);
  /// Shared perturbation body: seeded element flip of `value`, mirrored
  /// into `in_place` when the index is in range.
  void perturb(std::span<real> value, std::span<real> in_place,
               std::uint64_t pending);
};

}  // namespace fusedml::kernels
