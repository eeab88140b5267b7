// The virtual GPU device: launches kernels, schedules blocks, merges
// counters, and reports modeled time per launch.
//
// Execution model. A kernel is a callable invoked once per thread block with
// a BlockCtx. Inside, the kernel iterates its warps/vectors/lanes explicitly
// in warp-synchronous phases — the paper's algorithms all have a static
// barrier structure (init / row loop / __syncthreads / final aggregation),
// so this lock-step style is exact. Blocks run one at a time, in block
// order, on the launching thread; global-memory accumulations go through
// atomic_add() so the kernels read like their CUDA counterparts.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "common/error.h"
#include "common/timer.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "vgpu/cost_model.h"
#include "vgpu/device_spec.h"
#include "vgpu/fault_injector.h"
#include "vgpu/launch_config.h"
#include "vgpu/mem_counters.h"
#include "vgpu/mem_tracker.h"
#include "vgpu/occupancy.h"
#include "vgpu/shared_memory.h"

namespace fusedml::vgpu {

/// The virtual device's atomicAdd(double*). Blocks run sequentially in
/// block order, so a plain add gives the same bits a serialized atomic
/// would.
inline void atomic_add(real& target, real value) { target += value; }

/// Per-block execution context handed to kernels.
class BlockCtx {
 public:
  BlockCtx(int block_id, const LaunchConfig& cfg, const DeviceSpec& device)
      : block_id_(block_id),
        cfg_(cfg),
        device_(device),
        smem_(cfg.smem_words, device.smem_banks, counters_),
        mem_(counters_) {}

  int block_id() const { return block_id_; }
  int grid_size() const { return cfg_.grid_size; }
  int block_size() const { return cfg_.block_size; }
  int vector_size() const { return cfg_.vector_size; }
  int num_vectors() const { return cfg_.num_vectors_per_block(); }
  int coarsening() const { return cfg_.coarsening; }
  int thread_load() const { return cfg_.thread_load; }
  const LaunchConfig& config() const { return cfg_; }
  const DeviceSpec& device() const { return device_; }

  SharedMemory& smem() { return smem_; }
  MemTracker& mem() { return mem_; }
  MemCounters& counters() { return counters_; }

 private:
  int block_id_;
  const LaunchConfig& cfg_;
  const DeviceSpec& device_;
  MemCounters counters_;
  SharedMemory smem_;
  MemTracker mem_;
};

/// Everything known about one kernel launch after it retires.
struct LaunchStats {
  MemCounters counters;
  OccupancyResult occupancy;
  TimeBreakdown time;       ///< modeled device time
  double wall_ms = 0.0;     ///< host wall-clock of the functional simulation
  LaunchConfig config;

  double modeled_ms() const { return time.total_ms; }
};

class Device {
 public:
  explicit Device(DeviceSpec spec = gtx_titan(), CostParams params = {})
      : spec_(std::move(spec)), cost_model_(spec_, params) {}

  const DeviceSpec& spec() const { return spec_; }
  const CostModel& cost_model() const { return cost_model_; }

  /// Attaches a fault injector (nullptr detaches). Not owned. A disarmed
  /// injector (all rates zero) leaves every modeled time unchanged.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  /// Launch `kernel` (callable taking BlockCtx&) over cfg.grid_size blocks.
  ///
  /// With a fault injector attached, the launch may instead raise one of the
  /// typed faults: KernelFaultError before the kernel body runs (only the
  /// launch overhead is burned), DeviceOomError for an injected workspace
  /// allocation failure, or DataError *after* the kernel ran (an ECC event
  /// on its output — the full kernel time is burned, and callers must treat
  /// any in-place outputs as corrupted). Burned time is charged to the
  /// session totals and carried on the exception as penalty_ms().
  ///
  /// A kSilentCorruption fault raises NOTHING: the launch returns normally
  /// with full accounting and only pending_silent_corruptions() betrays
  /// that the output of this launch must be perturbed. The op layer
  /// (kernels/op_registry.cpp) consumes the pending count via
  /// take_silent_corruptions() and applies a deterministic seeded element
  /// perturbation to the op's output buffer — exactly the fault model ABFT
  /// verification (kernels/abft.h) exists to catch.
  template <typename Kernel>
  LaunchStats launch(const LaunchConfig& cfg, Kernel&& kernel) {
    FUSEDML_CHECK(cfg.internally_consistent(), "inconsistent launch config");
    FUSEDML_CHECK(cfg.block_size <= spec_.max_threads_per_block,
                  "block size exceeds device limit");
    FUSEDML_CHECK(cfg.smem_words * sizeof(real) <= spec_.smem_per_sm_bytes,
                  "shared memory request exceeds SM capacity");

    const FaultKind fault =
        injector_ != nullptr ? injector_->next_launch_fault() : FaultKind::kNone;
    if (fault == FaultKind::kKernelFault) {
      const double penalty = cost_model_.params().launch_overhead_us / 1000.0;
      ++session_launches_;
      session_modeled_ms_ += penalty;
      record_fault_event(cfg.label, "kernel_fault", penalty);
      throw KernelFaultError("injected kernel-launch failure", penalty);
    }
    if (fault == FaultKind::kDeviceOom) {
      throw DeviceOomError("injected device OOM at kernel launch");
    }

    LaunchStats stats;
    stats.config = cfg;
    stats.occupancy =
        compute_occupancy(spec_, cfg.block_size, cfg.resources);

    Timer wall;
    for (int b = 0; b < cfg.grid_size; ++b) {
      BlockCtx ctx(b, cfg, spec_);
      kernel(ctx);
      stats.counters += ctx.counters();
    }
    stats.wall_ms = wall.elapsed_ms();

    stats.time = cost_model_.kernel_time(stats.counters, stats.occupancy);
    ++session_launches_;
    session_modeled_ms_ += stats.time.total_ms;
    session_counters_ += stats.counters;
    record_launch_event(cfg, stats);
    if (fault == FaultKind::kEcc) {
      record_fault_event(cfg.label, "ecc", 0.0);
      throw DataError("injected ECC corruption in kernel output",
                      stats.time.total_ms);
    }
    if (fault == FaultKind::kSilentCorruption) {
      record_fault_event(cfg.label, "silent_corruption", 0.0);
      ++pending_silent_;
      ++silent_seq_;
    }
    return stats;
  }

  /// Modeled host->device copy; accumulates into the session totals. With a
  /// fault injector attached the copy may fail in flight (TransferError);
  /// the bus time is still burned and carried as the error's penalty.
  double transfer_h2d_ms(std::uint64_t bytes) {
    const double ms = cost_model_.transfer_ms(bytes);
    session_transfer_ms_ += ms;
    const bool faulted =
        injector_ != nullptr && injector_->next_transfer_fault();
    if (obs::recorder().enabled()) {
      obs::TraceEvent ev;
      ev.name = faulted ? "pcie_transfer_fault" : "pcie_transfer";
      ev.cat = "transfer";
      ev.track = obs::Track::kPcie;
      ev.dur_ms = ms;
      ev.ts_ms = obs::recorder().advance_ms(ms);
      ev.num_args.emplace_back("bytes", static_cast<double>(bytes));
      obs::recorder().record(std::move(ev));
    }
    if (obs::metrics().enabled()) {
      obs::metrics().counter("vgpu.transfers").add();
      obs::metrics().counter("vgpu.transfer_bytes").add(bytes);
    }
    if (faulted) {
      if (obs::metrics().enabled()) {
        obs::metrics().counter("vgpu.faults_injected").add();
      }
      throw TransferError("injected PCIe transfer fault", ms);
    }
    return ms;
  }

  // --- Silent-corruption handshake with the op layer ---------------------
  /// Silent corruptions armed since the last take_silent_corruptions().
  /// Non-zero means the output of a launch in the current logical op must
  /// be perturbed before anyone reads it.
  std::uint64_t pending_silent_corruptions() const { return pending_silent_; }
  /// Consumes (returns and clears) the pending count. The op layer calls
  /// this once per logical op, right where the op's output buffer is in
  /// hand.
  std::uint64_t take_silent_corruptions() {
    const std::uint64_t n = pending_silent_;
    pending_silent_ = 0;
    return n;
  }
  /// Monotonic ordinal of silent-corruption events on this device — the
  /// deterministic salt for the seeded element perturbation (advances per
  /// event, survives reset_session so replays within one schedule differ
  /// per event, not per session).
  std::uint64_t silent_corruption_seq() const { return silent_seq_; }

  // --- Session accounting (end-to-end benches) ---------------------------
  std::uint64_t session_launches() const { return session_launches_; }
  double session_modeled_ms() const { return session_modeled_ms_; }
  double session_transfer_ms() const { return session_transfer_ms_; }
  const MemCounters& session_counters() const { return session_counters_; }
  void reset_session() {
    session_launches_ = 0;
    session_modeled_ms_ = 0.0;
    session_transfer_ms_ = 0.0;
    session_counters_ = MemCounters{};
  }

 private:
  DeviceSpec spec_;
  CostModel cost_model_;
  FaultInjector* injector_ = nullptr;
  std::uint64_t pending_silent_ = 0;
  std::uint64_t silent_seq_ = 0;
  std::uint64_t session_launches_ = 0;
  double session_modeled_ms_ = 0.0;
  double session_transfer_ms_ = 0.0;
  MemCounters session_counters_;

  /// Records the retired launch on the device track (advancing the modeled
  /// clock by the billed time) and mirrors its counters into the metrics
  /// registry. One relaxed load each when observability is off.
  void record_launch_event(const LaunchConfig& cfg, const LaunchStats& stats) {
    if (obs::recorder().enabled()) {
      obs::TraceEvent ev;
      ev.name = cfg.label;
      ev.cat = "kernel";
      ev.track = obs::Track::kDevice;
      ev.dur_ms = stats.time.total_ms;
      ev.ts_ms = obs::recorder().advance_ms(stats.time.total_ms);
      ev.has_kernel = true;
      ev.kernel.counters = stats.counters;
      ev.kernel.time = stats.time;
      ev.kernel.occupancy = stats.occupancy.occupancy;
      ev.kernel.grid_size = cfg.grid_size;
      ev.kernel.block_size = cfg.block_size;
      obs::recorder().record(std::move(ev));
    }
    if (obs::metrics().enabled()) {
      auto& m = obs::metrics();
      m.counter("vgpu.launches").add();
      m.counter("vgpu.gld_transactions").add(stats.counters.gld_transactions);
      m.counter("vgpu.gst_transactions").add(stats.counters.gst_transactions);
      m.counter("vgpu.dram_bytes").add(stats.counters.dram_bytes());
      m.counter("vgpu.atomic_cas_ops").add(stats.counters.atomic_global_ops);
      m.gauge("vgpu.kernel_ms").add(stats.time.total_ms);
      m.histogram("vgpu.kernel_ms_per_launch").observe(stats.time.total_ms);
    }
  }

  /// Instant (or penalty-length) fault marker on the device track.
  void record_fault_event(const char* label, const char* kind,
                          double penalty_ms) {
    if (obs::recorder().enabled()) {
      obs::TraceEvent ev;
      ev.name = std::string(kind) + ":" + label;
      ev.cat = "fault";
      ev.track = obs::Track::kDevice;
      ev.dur_ms = penalty_ms;
      ev.ts_ms = penalty_ms > 0.0 ? obs::recorder().advance_ms(penalty_ms)
                                  : obs::recorder().now_ms();
      obs::recorder().record(std::move(ev));
    }
    if (obs::metrics().enabled()) {
      obs::metrics().counter("vgpu.faults_injected").add();
    }
  }
};

}  // namespace fusedml::vgpu
