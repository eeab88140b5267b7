// Analytical timing model: counters -> modeled milliseconds.
//
// The paper's kernels are memory-bound (§3: one flop per loaded element of X,
// against the 34 flops-per-load needed to reach peak on a GTX Titan), so the
// dominant term is DRAM traffic over effective bandwidth. The model adds the
// second-order terms the paper's optimizations target: kernel-launch
// overhead (why fusion beats operator-at-a-time), atomic serialization (why
// hierarchical aggregation and coarsening exist), occupancy-dependent
// latency hiding (why the §3.3 tuner maximizes occupancy), shared-memory
// bank conflicts, and local-memory spill traffic (why §3.2 generates
// unrolled code instead of indexing registers).
//
// Modeled numbers are *not* claimed to match the paper's wall-clock on real
// silicon; they preserve the traffic ratios that decide every figure's shape.
#pragma once

#include "vgpu/device_spec.h"
#include "vgpu/mem_counters.h"
#include "vgpu/occupancy.h"

namespace fusedml::vgpu {

struct CostParams {
  double launch_overhead_us = 5.0;   ///< per kernel launch (driver+runtime)
  double dram_efficiency = 0.80;     ///< achievable fraction of peak bandwidth
  double l2_bandwidth_factor = 3.0;  ///< L2 hit bandwidth vs DRAM
  double tex_bandwidth_factor = 2.0; ///< texture-path bandwidth vs DRAM
  double occupancy_knee = 0.50;      ///< occupancy needed to hide DRAM latency
  double min_bandwidth_fraction = 0.10;  ///< floor at very low occupancy
  /// Atomics are priced with contention-degraded throughput:
  ///   t = ops * (1 + per_address_updates / knee) / throughput.
  /// CC 3.5 has no native double atomicAdd — doubles run CAS loops whose
  /// retries amplify under contention (small knee); native integer
  /// fetch-adds degrade far more gracefully (large knee).
  /// Spread atomics execute in L2 at high rate (and ML matrices' skewed
  /// column popularity keeps the hot targets cached — §4.1's "likelihood of
  /// concurrent accesses ... is very small"); contention collapses the
  /// CAS-loop doubles quickly (small knee).
  double atomic_int_throughput_ops_per_ns = 1.4;
  double atomic_int_contention_knee = 4000.0;
  double atomic_double_throughput_ops_per_ns = 8.0;
  double atomic_double_contention_knee = 75.0;
  /// Shared-memory words per clock for the whole device (32 banks/SM).
  double smem_words_per_clock_per_sm = 32.0;
  /// Shuffle/ALU ops priced like flops.
  double flops_efficiency = 0.85;
};

/// Per-kernel breakdown (useful in benches and ablation output).
struct TimeBreakdown {
  double launch_ms = 0.0;
  double dram_ms = 0.0;
  double l2_ms = 0.0;
  double tex_ms = 0.0;
  double compute_ms = 0.0;
  double smem_ms = 0.0;
  double atomic_ms = 0.0;
  double spill_ms = 0.0;
  double total_ms = 0.0;
};

class CostModel {
 public:
  CostModel(DeviceSpec spec, CostParams params = {})
      : spec_(std::move(spec)), params_(params) {}

  /// Modeled execution time of one kernel launch.
  TimeBreakdown kernel_time(const MemCounters& counters,
                            const OccupancyResult& occ) const;

  /// Host<->device transfer over the PCIe model.
  double transfer_ms(std::uint64_t bytes) const;

  const DeviceSpec& spec() const { return spec_; }
  const CostParams& params() const { return params_; }

 private:
  DeviceSpec spec_;
  CostParams params_;
};

/// Host-CPU analytical model for the BIDMat-CPU / MKL comparison lines.
/// Times a streaming kernel that touches `bytes` of memory and performs
/// `flops` flops on `threads` threads.
class CpuCostModel {
 public:
  explicit CpuCostModel(CpuSpec spec, double bandwidth_efficiency = 0.85,
                        double per_call_overhead_us = 2.0)
      : spec_(std::move(spec)),
        bandwidth_efficiency_(bandwidth_efficiency),
        per_call_overhead_us_(per_call_overhead_us) {}

  /// `bandwidth_efficiency` < 0 uses the model default. Sparse kernels with
  /// index chasing and gathers achieve a far lower fraction of stream
  /// bandwidth than dense streaming ones — callers pass the class-specific
  /// figure.
  double op_time_ms(std::uint64_t bytes, std::uint64_t flops, int threads,
                    double bandwidth_efficiency = -1.0) const;

  const CpuSpec& spec() const { return spec_; }

 private:
  CpuSpec spec_;
  double bandwidth_efficiency_;
  double per_call_overhead_us_;
};

}  // namespace fusedml::vgpu
