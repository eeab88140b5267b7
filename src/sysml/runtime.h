// The mini declarative-ML runtime — §4.4's three components wired together:
//   (i)  a cost model that schedules each operation onto the host or the
//        device (including the transfers the choice implies),
//   (ii) the GPU memory manager (memory_manager.h),
//   (iii) the backend GPU kernels (this paper's contribution, via the
//        unified operator registry — kernels/op_registry.h).
//
// Data lives in "JVM" host space; the first time a tensor is shipped to the
// device it pays the JNI conversion (jni_bridge.h) plus the PCIe copy, and
// afterwards the memory manager keeps copies consistent. Running the same
// script with the GPU disabled yields the SystemML-CPU baseline of Table 6.
//
// Each op_* body looks up its operands and hands the three steps to one
// private dispatch(): place the op, stage (or sync) its inputs, run the
// registry under this runtime's RetryPolicy clamped to the modeled
// deadline. Device placements start on RuntimeOptions::gpu_backend (the
// fused kernels unless a bench selects a baseline); injected device faults
// are retried with modeled backoff and degrade down the registry's
// fallback chain to the CPU (the dispatch switch and the resilience loop
// exist once, in the registry). Whole solvers reach this runtime through
// the script library (ml/script_library.h); there is no second stack.
//
// Tensor lifetime: a tensor lives until discard() — the runtime's rmvar —
// drops its host value and its memory-manager entry (task (c), without a
// write-back or a modeled charge). The DAG interpreter (dag.h execute())
// discards every intermediate of a DAG once its root is computed, and a
// script discards each run() output and per-iteration leaf after its last
// read, so a solver's footprint does not grow with its iteration count.
// A read_vector() span dies with its tensor: read it before the discard.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/resilience.h"
#include "kernels/op_registry.h"
#include "obs/plan_audit.h"
#include "la/csr_matrix.h"
#include "la/dense_matrix.h"
#include "la/matrix_ref.h"
#include "sysml/jni_bridge.h"
#include "sysml/memory_manager.h"
#include "vgpu/device.h"

namespace fusedml {

class Cli;  // common/cli.h — flag parser for benches and examples

namespace sysml {

class Program;  // expr.h — the expression-builder frontend's compiled form

struct RuntimeOptions {
  bool enable_gpu = true;
  usize device_capacity = 0;  ///< 0 = the device's full global memory
  /// Scheduler bias: GPU estimated time is multiplied by this before the
  /// comparison (values > 1 make the scheduler more conservative).
  double gpu_cost_bias = 1.0;
  /// Backend for every op the scheduler places on the device: the paper's
  /// fused kernels, or an operator-at-a-time baseline (kCusparse,
  /// kBidmatGpu) for the comparison columns of Tables 5/6. kCpu is not a
  /// device backend; disable the GPU with enable_gpu instead.
  kernels::Backend gpu_backend = kernels::Backend::kFused;
};

/// Knobs for the explore/select/rewrite fusion planner
/// (sysml/fusion_planner.h). Defined here so a Runtime can carry the
/// options its programs are planned with (Program::prepare reads them) and
/// echo them in explain().
struct PlannerOptions {
  bool enable_pattern_fusion = true;  ///< Equation-1 / Table-1 candidates
  bool enable_ewise_fusion = true;    ///< generated elementwise-chain kernels
  /// A candidate must beat the unfused cost by at least this much modeled
  /// time (and strictly reduce launches) to be chosen.
  double min_benefit_ms = 0.0;
  bool enable_row_fusion = true;   ///< row template: product + epilogue
  bool enable_sddmm_fusion = true; ///< sparsity-exploiting sddmm template
  /// Overlap resolution is EXACT (optimal weighted set packing by DFS) while
  /// the enumerated candidate count is at most this; larger candidate sets
  /// fall back to benefit-ordered greedy with one-step lookahead.
  int candidate_budget = 24;

  bool operator==(const PlannerOptions&) const = default;
};

/// Declares and parses the standard planner flags (--planner-budget,
/// --planner-min-benefit, and the per-family --planner-eq1 / ewise / row /
/// sddmm enables) so every bench and example exposes the same knobs.
PlannerOptions planner_options_from_cli(Cli& cli);

struct RuntimeStats {
  double gpu_kernel_ms = 0.0;   ///< modeled device kernel time
  double cpu_op_ms = 0.0;       ///< modeled host op time
  double jni_ms = 0.0;          ///< representation conversion + heap copies
  double transfer_ms = 0.0;     ///< PCIe traffic (from the memory manager)
  std::uint64_t gpu_ops = 0;
  std::uint64_t cpu_ops = 0;
  std::uint64_t kernel_launches = 0;  ///< device launches across all ops —
                                      ///< the quantity fusion minimizes
  /// For the "Fused Kernel Speedup" row of Table 6: device time of the
  /// pattern ops that ran on the GPU, and what the same ops would have cost
  /// on the CPU.
  double pattern_gpu_ms = 0.0;
  double pattern_cpu_equiv_ms = 0.0;
  /// Time lost to fault recovery (wasted attempts + retry backoff), booked
  /// separately so the success-path metrics above stay comparable between
  /// clean and faulted runs. Included in total_ms().
  double resilience_overhead_ms = 0.0;
  /// ABFT verification sub-bucket: device launches/time spent proving GPU
  /// results against checksums (kernels/abft.h). Already INCLUDED in
  /// kernel_launches/gpu_kernel_ms — the device really issued them — and
  /// broken out here so policy overhead is visible and subtractable.
  std::uint64_t verify_launches = 0;
  double verify_ms = 0.0;
  /// HOST wall-clock milliseconds spent in the fusion planner
  /// (Program::prepare on cache misses). Planning is host work on the real
  /// clock, so it is deliberately EXCLUDED from total_ms() — the modeled
  /// timeline stays reproducible — and surfaced separately so a request's
  /// latency can be decomposed into queue/plan/exec/verify buckets.
  double plan_host_ms = 0.0;

  double total_ms() const {
    return gpu_kernel_ms + cpu_op_ms + jni_ms + transfer_ms +
           resilience_overhead_ms;
  }
};

/// Shape/storage summary of a registered tensor — what the fusion planner
/// needs to cost candidate plans without touching the values.
struct TensorInfo {
  bool is_matrix = false;
  bool is_sparse = false;
  index_t rows = 0;  ///< vectors: the length
  index_t cols = 0;
  usize bytes = 0;
  std::uint64_t nnz = 0;  ///< sparse matrices only

  bool operator==(const TensorInfo&) const = default;
};

class Runtime {
 public:
  explicit Runtime(vgpu::Device& dev, RuntimeOptions opts = {});

  // --- Data ingestion (host/JVM side) -------------------------------------
  TensorId add_sparse(la::CsrMatrix X, std::string name);
  TensorId add_dense(la::DenseMatrix X, std::string name);
  TensorId add_vector(std::vector<real> v, std::string name);
  TensorId new_vector(usize n, std::string name);

  // --- Operations (each scheduled CPU-vs-GPU by the cost model) -----------
  /// w = alpha * X^T * (v ⊙ (X*y)) + beta*z; pass 0 for absent v/z.
  TensorId op_pattern(real alpha, TensorId X, TensorId v, TensorId y,
                      real beta, TensorId z);
  /// w = alpha * X^T * y.
  TensorId op_transposed_product(TensorId X, TensorId y, real alpha = 1);
  /// p = X * y.
  TensorId op_product(TensorId X, TensorId y);
  void op_axpy(real alpha, TensorId x, TensorId y);
  /// out = x ⊙ y (new tensor).
  TensorId op_ewise_mul(TensorId x, TensorId y);
  /// out[i] = f(x[i]) (new tensor). Element-wise maps (sigmoid, exp, ...)
  /// run wherever the data is cheapest to reach; on the device they are one
  /// streaming kernel.
  TensorId op_map(TensorId x, real (*f)(real), const std::string& name);
  /// One generated streaming kernel evaluating a whole elementwise chain
  /// (the fusion planner's collapsed kScale/kAdd/kEwiseMul/kMap runs):
  /// reads each input once, writes the output once, intermediates stay in
  /// registers. Bit-exact vs running the chain op-at-a-time.
  TensorId op_fused_ewise(const kernels::EwiseProgram& program,
                          std::span<const TensorId> inputs,
                          const std::string& name);
  real op_dot(TensorId x, TensorId y);
  real op_nrm2(TensorId x);
  void op_scal(real alpha, TensorId x);

  // --- Sparsity-template ops (kernels/fused_row.h) ------------------------
  /// The m*n values of f(u v^T), row-major — a vector tensor of length m*n
  /// (the dense intermediate the sddmm template exists to avoid).
  TensorId op_outer_map(TensorId u, TensorId v, real (*f)(real),
                        const std::string& name);
  /// X's values scaled elementwise by an outer-map `om` (at X's nonzeros
  /// for CSR storage, densely otherwise).
  TensorId op_sparse_mask(TensorId X, TensorId om);
  /// M * z where M is X's structure with substituted values `vals`.
  TensorId op_masked_product(TensorId X, TensorId vals, TensorId z);
  /// Row template: out[r] = program(X*y |_r, ext_0[r], ...), one kernel.
  /// Program slot 0 is the row product; ext fills the remaining slots.
  TensorId op_fused_row(TensorId X, TensorId y,
                        const kernels::EwiseProgram& program,
                        std::span<const TensorId> ext);
  /// Sparsity-exploiting template: (X ⊙ f(u v^T)) * z at nnz(X), one kernel.
  TensorId op_fused_sddmm(TensorId X, TensorId u, TensorId v, TensorId z,
                          real (*f)(real), const std::string& name);

  /// Host view of a vector (synchronizes from the device if needed). The
  /// span is valid until `id` is discarded.
  std::span<const real> read_vector(TensorId id);

  /// Ends tensor `id`'s lifetime: drops its host value and its device copy
  /// (no write-back, no modeled charge). Throws on an unknown id; any later
  /// use of the id throws "unknown tensor id".
  void discard(TensorId id);
  /// Tensors currently registered (not yet discarded).
  usize live_tensors() const { return tensors_.size(); }
  /// Device bytes the memory manager holds for live tensors.
  usize device_bytes_in_use() const { return mm_.device_bytes_in_use(); }

  /// Overwrites a vector tensor's host values in place (sizes must match).
  /// The device copy, if any, is invalidated — the next device op re-uploads.
  /// This is how solvers thread loop-carried host state (CG directions,
  /// trial weights) into a cached Program without re-registering tensors.
  void write_vector(TensorId id, std::span<const real> values);

  /// Runs a prepared expression Program: plans it for the current leaf
  /// shapes on first contact (cached afterwards) and interprets the chosen
  /// DAG. The single public execution entry point for algorithm scripts.
  TensorId run(Program& program, const std::string& output = "");

  /// Shape/storage info for the planner's cost model.
  TensorInfo tensor_info(TensorId id);

  const RuntimeStats& stats() const { return stats_; }
  const MemoryStats& memory_stats() const { return mm_.stats(); }
  const RuntimeOptions& options() const { return opts_; }

  /// Fusion-planner knobs applied when this runtime prepares a Program
  /// (Program::prepare passes them to plan_fusion and keys its plan cache
  /// on them). Change them BEFORE preparing; already-planned programs
  /// re-plan only when the options differ from the cached plan's.
  void set_planner_options(const PlannerOptions& opts) {
    planner_opts_ = opts;
  }
  const PlannerOptions& planner_options() const { return planner_opts_; }

  /// Fault-handling knobs shared with the registry's resilient dispatch.
  RetryPolicy& retry_policy() { return retry_; }
  const RetryPolicy& retry_policy() const { return retry_; }
  /// Faults absorbed across every op this runtime executed.
  const ResilienceStats& resilience() const { return resilience_; }

  /// ABFT verification coverage for every op this runtime dispatches
  /// (forwarded to the registry's verifier; see kernels/abft.h).
  void set_verify_policy(kernels::VerifyPolicy policy) {
    registry_.set_verify_policy(policy);
  }
  kernels::VerifyPolicy verify_policy() const {
    return registry_.verify_policy();
  }

  /// Books one solver checkpoint rollback (sysml/checkpoint.h) into this
  /// runtime's resilience totals so RunReports and the serving layer see
  /// rollbacks next to the faults that caused them.
  void note_rollback() { ++resilience_.rollbacks; }

  /// Modeled deadline for everything this runtime executes (0 = none): once
  /// stats().total_ms() reaches it, the next op dispatch throws
  /// DeadlineError instead of running, and each dispatch's retry budget is
  /// clamped to the time remaining — a script on a doomed request stops
  /// burning backoffs mid-op instead of completing six retries per tier.
  /// The serving layer sets this to a request's remaining deadline.
  void set_modeled_deadline(double deadline_ms) { deadline_ms_ = deadline_ms; }

  kernels::OpRegistry& registry() { return registry_; }
  vgpu::Device& device() { return dev_; }

  /// One entry per executed op: what ran, where, and what it cost — the
  /// explain-plan a declarative system surfaces for debugging placement.
  /// Equation-1 ops name their Table-1 instantiation: "pattern" is
  /// X^T*(X*y), and a "[v]" / "[bz]" / "[v,bz]" suffix marks the v-weighted,
  /// +beta*z and full forms; alpha*X^T*y is "transposed_product".
  struct TraceEntry {
    std::string op;
    bool on_gpu = false;
    bool pattern = false;  ///< an Equation-1 op or a*X^T*y (Table 2's bucket)
    double modeled_ms = 0;
    double wall_ms = 0;  ///< host wall-clock of the op's functional run
  };
  const std::vector<TraceEntry>& trace() const { return trace_; }

  /// Records the fusion planner's chosen plan so explain() can print it.
  void note_plan(std::string explain_text) {
    plan_explain_ = std::move(explain_text);
  }

  /// Books host wall-clock planning time (Program::prepare) into
  /// stats().plan_host_ms and, when tracing is on, drops an instant marker
  /// on the modeled timeline (host work never advances the modeled clock).
  void note_plan_prepare(double host_ms, bool cache_hit);

  // --- Plan-vs-actual audit ----------------------------------------------
  /// Records what the planner predicts ONE execution of the upcoming DAG
  /// will cost; the DAG interpreter then reports observations per execute().
  void note_plan_prediction(std::uint64_t launches_per_exec,
                            double ms_per_exec) {
    plan_audit_.has_prediction = true;
    plan_audit_.predicted_launches_per_exec = launches_per_exec;
    plan_audit_.predicted_ms_per_exec = ms_per_exec;
  }
  /// One DAG execution's observed kernel-launch and modeled-time deltas
  /// (called by dag execute()). The currently-armed prediction is summed
  /// into the audit's accumulators here, so scripts that alternate between
  /// several planned programs (each re-arming before run) audit correctly.
  void note_plan_execution(std::uint64_t launches, double ms) {
    ++plan_audit_.executions;
    plan_audit_.observed_launches += launches;
    plan_audit_.observed_ms += ms;
    if (plan_audit_.has_prediction) {
      plan_audit_.predicted_launches_accum +=
          plan_audit_.predicted_launches_per_exec;
      plan_audit_.predicted_ms_accum += plan_audit_.predicted_ms_per_exec;
    }
  }
  const obs::PlanAudit& plan_audit() const { return plan_audit_; }
  /// Database-style explain: the noted fusion plan (if any) followed by the
  /// executed-op trace with placement and modeled cost.
  std::string explain() const;

 private:
  using Value =
      std::variant<la::CsrMatrix, la::DenseMatrix, std::vector<real>>;
  struct Tensor {
    Value value;
    bool native = false;  ///< JNI conversion done?
  };

  vgpu::Device& dev_;
  RuntimeOptions opts_;
  MemoryManager mm_;
  JniBridge jni_;
  kernels::OpRegistry registry_;
  std::unordered_map<TensorId, Tensor> tensors_;
  TensorId next_id_ = 1;
  RuntimeStats stats_;
  PlannerOptions planner_opts_;
  RetryPolicy retry_;
  ResilienceStats resilience_;
  double deadline_ms_ = 0.0;
  std::vector<TraceEntry> trace_;
  std::string plan_explain_;
  obs::PlanAudit plan_audit_;

  void record_trace(const char* op, bool on_gpu, bool pattern, double ms,
                    double wall_ms) {
    trace_.push_back({op, on_gpu, pattern, ms, wall_ms});
  }

  const kernels::CpuBackend& cpu() const { return registry_.cpu(); }

  TensorId store(Value v, usize bytes, std::string name);
  Tensor& tensor(TensorId id);
  std::vector<real>& vec(TensorId id);
  /// The matrix tensor `id`, whichever its storage; throws if it is a
  /// vector.
  la::MatrixRef matrix(TensorId id);
  usize tensor_bytes(TensorId id);

  /// Moves a tensor to the device, paying JNI on first contact; charges
  /// into stats_.
  void stage_on_device(TensorId id);
  void sync_to_host(TensorId id);

  /// The §4.4 sequence every op_* body shares, in this order: the cost
  /// model places the op (choose_gpu_span over `bytes_touched` and
  /// `inputs`); each non-zero input is staged on the device — or synced to
  /// the host — in the listed order (LRU order and transfer cost depend on
  /// it); and the registry runs `attempt` from kFused or kCpu under this
  /// runtime's RetryPolicy clamped to the modeled deadline. `inout` names
  /// memory the op mutates in place (snapshotted before a retry). A
  /// fault-degraded run may come back on a different backend — callers book
  /// by outcome.backend_used, not by the placement.
  kernels::KernelOutcome dispatch(
      usize bytes_touched, std::span<const TensorId> inputs,
      const std::function<kernels::KernelOutcome(kernels::Backend)>& attempt,
      std::span<real> inout = {});

  /// Books one outcome into stats_ + trace_ by where it actually ran.
  void book(const kernels::KernelOutcome& outcome, const char* op,
            bool pattern_class);

  /// Registers the outcome's value as a new tensor, on-device when the op
  /// ran there (born in native/device space).
  TensorId emit(kernels::KernelOutcome&& outcome, std::string name);
  /// Residency after an in-place op (axpy, scal) wrote tensor `id`: the
  /// device copy is authoritative when the op ran there, the host copy
  /// otherwise.
  void mark_written(TensorId id, const kernels::KernelOutcome& outcome);

  /// Scheduler estimates (GB-scale streaming heuristics).
  double estimate_gpu_ms(usize bytes_touched);
  double estimate_cpu_ms(usize bytes_touched);
  bool choose_gpu_span(usize bytes_touched, std::span<const TensorId> inputs);
};

}  // namespace sysml
}  // namespace fusedml
