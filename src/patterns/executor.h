// PatternExecutor — the library's main entry point.
//
// An executor owns a backend choice (fused device kernels, the multi-kernel
// cuSPARSE/cuBLAS-style baseline, the BIDMat-GPU-style baseline, or the
// CPU) and evaluates pattern instantiations against it. ML algorithms in
// src/ml are written once against this interface; benches swap backends to
// produce the paper's comparison lines; the usage histogram feeds Table 1.
//
// Dispatch and resilience both live in the unified operator registry
// (kernels/op_registry.h): each op's backend-switch body exists exactly
// once there, shared with the sysml::Runtime scheduler, and every call runs
// under the executor's RetryPolicy — transient faults from the virtual
// device are retried with modeled exponential backoff, and repeated failure
// or device OOM degrades the backend fused -> baseline-GPU -> CPU. Retried
// results are bit-exact (in-place operands are snapshotted and restored
// before each re-attempt) and all retry/backoff time is charged to the op's
// modeled cost so benches report the overhead honestly.
#pragma once

#include <functional>
#include <map>
#include <span>

#include "common/resilience.h"
#include "kernels/op_registry.h"
#include "la/csr_matrix.h"
#include "la/dense_matrix.h"
#include "patterns/pattern.h"
#include "vgpu/device.h"

namespace fusedml::patterns {

// The backend vocabulary and the per-op outcome are owned by the registry;
// re-exported here so the library's historical spelling (patterns::Backend,
// patterns::to_string) keeps working for benches and tests. Every executor
// op returns the registry's KernelOutcome unchanged.
using Backend = kernels::Backend;
using kernels::fallback_backend;
using kernels::KernelOutcome;
using kernels::to_string;

class PatternExecutor {
 public:
  /// `cpu_threads` parameterizes the CPU backend's cost model (8 = the
  /// paper's MKL setting; 1 = the single-thread profile behind Table 2).
  PatternExecutor(vgpu::Device& dev, Backend backend, int cpu_threads = 8)
      : registry_(dev, cpu_threads), backend_(backend) {}

  Backend backend() const { return backend_; }

  /// w = alpha * X^T * y (Algorithm 1 territory; y has m entries).
  KernelOutcome transposed_product(const la::CsrMatrix& X,
                                   std::span<const real> y, real alpha = 1);

  /// Dense counterpart. The paper does not fuse this case ("we do not
  /// consider X^T x y, when X is dense" — cuBLAS is already near-optimal),
  /// so every GPU backend runs the gemv_t kernel here.
  KernelOutcome transposed_product(const la::DenseMatrix& X,
                                   std::span<const real> y, real alpha = 1);

  /// Plain products p = X * y (not a Table-1 pattern; cuSPARSE/cuBLAS are
  /// "already optimized" here per §4, so all GPU backends share one kernel).
  KernelOutcome product(const la::CsrMatrix& X, std::span<const real> y);
  KernelOutcome product(const la::DenseMatrix& X, std::span<const real> y);

  // --- BLAS-1 through the same backend (the Listing-1 script needs these
  // between pattern evaluations; on GPU backends each is a kernel launch).
  KernelOutcome axpy(real alpha, std::span<const real> x, std::span<real> y);
  KernelOutcome dot(std::span<const real> x, std::span<const real> y);
  KernelOutcome nrm2(std::span<const real> x);
  KernelOutcome scal(real alpha, std::span<real> x);
  KernelOutcome ewise_mul(std::span<const real> x, std::span<const real> y);

  /// w = alpha * X^T * (v ⊙ (X*y)) + beta*z; v/z may be empty.
  KernelOutcome pattern(real alpha, const la::CsrMatrix& X,
                        std::span<const real> v, std::span<const real> y,
                        real beta, std::span<const real> z);
  KernelOutcome pattern(real alpha, const la::DenseMatrix& X,
                        std::span<const real> v, std::span<const real> y,
                        real beta, std::span<const real> z);

  // Convenience wrappers for the Table-1 instantiations.
  KernelOutcome xt_xy(const la::CsrMatrix& X, std::span<const real> y) {
    return pattern(1, X, {}, y, 0, {});
  }
  KernelOutcome xt_xy(const la::DenseMatrix& X, std::span<const real> y) {
    return pattern(1, X, {}, y, 0, {});
  }

  /// Fused-kernel options (texture binding, aggregation variant, cache
  /// modeling) applied when backend() == kFused.
  kernels::FusedSparseOptions& sparse_options() {
    return registry_.sparse_options();
  }
  kernels::FusedDenseOptions& dense_options() {
    return registry_.dense_options();
  }

  /// Fault-handling knobs (attempts per backend, modeled backoff schedule,
  /// whether backend degradation is permitted).
  RetryPolicy& retry_policy() { return retry_; }
  const RetryPolicy& retry_policy() const { return retry_; }

  /// Session-cumulative resilience stats across every op this executor ran.
  const ResilienceStats& resilience() const { return resilience_; }
  void reset_resilience() { resilience_ = ResilienceStats{}; }

  // --- Modeled session deadline (serving-layer support) -------------------
  /// Cumulative modeled milliseconds of every op since the last
  /// reset_session_clock() — the executor's position on the modeled
  /// timeline.
  double session_modeled_ms() const { return session_modeled_ms_; }
  void reset_session_clock() { session_modeled_ms_ = 0.0; }
  /// Deadline on the session clock (0 = none): an op dispatched after the
  /// clock passes it throws DeadlineError instead of running, and each
  /// dispatch's retry budget is clamped to the remaining headroom. The
  /// serving layer points this at a request's modeled deadline.
  void set_modeled_deadline(double deadline_ms) { deadline_ms_ = deadline_ms; }
  double modeled_deadline() const { return deadline_ms_; }

  /// Pattern-kind usage histogram (feeds the Table 1 bench).
  const std::map<PatternKind, std::uint64_t>& usage() const { return usage_; }
  void reset_usage() { usage_.clear(); }

  /// Generated-kernel cache (§3.2 lifecycle: the fused backend generates
  /// a kernel per specialization the first time a shape is seen, then
  /// reuses it across iterations).
  const kernels::KernelCache& kernel_cache() const {
    return registry_.kernel_cache();
  }

  kernels::OpRegistry& registry() { return registry_; }
  vgpu::Device& device() { return registry_.device(); }
  const kernels::CpuBackend& cpu() const { return registry_.cpu(); }

 private:
  kernels::OpRegistry registry_;
  Backend backend_;
  std::map<PatternKind, std::uint64_t> usage_;
  RetryPolicy retry_;
  ResilienceStats resilience_;
  double session_modeled_ms_ = 0.0;
  double deadline_ms_ = 0.0;

  void record(PatternKind kind) { ++usage_[kind]; }

  /// Registry resilient dispatch under the deadline-clamped policy; `kind`
  /// names the trace span.
  KernelOutcome run(const std::function<KernelOutcome(Backend)>& attempt,
                    PatternKind kind, std::span<real> inout = {});
};

}  // namespace fusedml::patterns
