#include "vgpu/cost_model.h"

#include <algorithm>
#include <cmath>

namespace fusedml::vgpu {

namespace {
double effective_bandwidth_gbs(const DeviceSpec& spec, const CostParams& params,
                               double occupancy) {
  // DRAM latency is hidden by warp-level parallelism; below the knee the
  // achievable bandwidth degrades roughly linearly (classic roofline-with-
  // concurrency behaviour), with a floor so a one-warp launch still makes
  // progress.
  const double factor = std::clamp(occupancy / params.occupancy_knee,
                                   params.min_bandwidth_fraction, 1.0);
  return spec.mem_bandwidth_gbs * params.dram_efficiency * factor;
}
}  // namespace

TimeBreakdown CostModel::kernel_time(const MemCounters& c,
                                     const OccupancyResult& occ) const {
  TimeBreakdown t;
  t.launch_ms = params_.launch_overhead_us / 1e3;

  // GB/s == B/ns
  const double bw = effective_bandwidth_gbs(spec_, params_, occ.occupancy);
  const double seg = static_cast<double>(spec_.transaction_bytes);

  t.dram_ms = static_cast<double>(c.gld_transactions + c.gst_transactions) *
              seg / bw / 1e6;
  t.l2_ms = static_cast<double>(c.l2_hit_transactions) * seg /
            (bw * params_.l2_bandwidth_factor) / 1e6;
  t.tex_ms = static_cast<double>(c.tex_transactions) * seg /
             (bw * params_.tex_bandwidth_factor) / 1e6;

  // Register spills round-trip through the local-memory path (DRAM-backed).
  t.spill_ms = static_cast<double>(c.local_spill_bytes) / bw / 1e6;

  const double effective_flops =
      static_cast<double>(c.flops + c.shuffle_ops);
  t.compute_ms = effective_flops /
                 (spec_.peak_gflops_dp * params_.flops_efficiency) / 1e6;

  const double smem_words_per_ns = params_.smem_words_per_clock_per_sm *
                                   spec_.num_sms * spec_.clock_ghz;
  t.smem_ms = static_cast<double>(c.smem_accesses + c.atomic_shared_ops +
                                  32ull * c.smem_bank_conflicts) /
              smem_words_per_ns / 1e6;

  // Atomics: contention-degraded throughput. Piling updates onto few
  // addresses serializes them — and for CAS-loop doubles each collision
  // also forces retries, so effective throughput falls roughly linearly
  // with the per-address update count (knee sets the slope). Integer
  // fetch-adds are native and degrade much more slowly.
  const auto atomic_term = [](std::uint64_t ops, std::uint64_t targets,
                              double throughput_ops_ns, double knee) {
    if (ops == 0) return 0.0;
    double contention_factor = 1.0;
    if (targets > 0) {
      const double per_addr =
          static_cast<double>(ops) / static_cast<double>(targets);
      contention_factor += per_addr / knee;
    }
    return static_cast<double>(ops) * contention_factor /
           throughput_ops_ns / 1e6;
  };
  t.atomic_ms =
      atomic_term(c.atomic_global_ops, c.atomic_global_targets,
                  params_.atomic_double_throughput_ops_per_ns,
                  params_.atomic_double_contention_knee) +
      atomic_term(c.atomic_int_ops, c.atomic_int_targets,
                  params_.atomic_int_throughput_ops_per_ns,
                  params_.atomic_int_contention_knee);

  // The memory paths and compute overlap; atomics and launch do not.
  const double overlapped =
      std::max({t.dram_ms + t.spill_ms, t.l2_ms, t.tex_ms, t.compute_ms,
                t.smem_ms});
  t.total_ms = t.launch_ms + overlapped + t.atomic_ms;
  return t;
}

double CostModel::transfer_ms(std::uint64_t bytes) const {
  return spec_.pcie_latency_us / 1e3 +
         static_cast<double>(bytes) / spec_.pcie_bandwidth_gbs / 1e6;
}

double CpuCostModel::op_time_ms(std::uint64_t bytes, std::uint64_t flops,
                                int threads,
                                double bandwidth_efficiency) const {
  const double eff_threads =
      std::min<double>(threads, spec_.threads);
  const double efficiency = bandwidth_efficiency > 0 ? bandwidth_efficiency
                                                     : bandwidth_efficiency_;
  const double bw = spec_.mem_bandwidth_gbs * efficiency;
  const double mem_ns = static_cast<double>(bytes) / bw;
  // Memory bandwidth is shared; compute scales with threads (up to 4 real
  // cores doing DP FMA — hyper-threads add little flops, much like MKL).
  const double core_scale = std::min(eff_threads, 4.0) / 4.0;
  const double flop_ns =
      static_cast<double>(flops) / (spec_.peak_gflops_dp * core_scale);
  return per_call_overhead_us_ / 1e3 + std::max(mem_ns, flop_ns) / 1e6;
}

}  // namespace fusedml::vgpu
