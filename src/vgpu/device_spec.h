// Device description for the virtual GPU.
//
// The defaults replicate the paper's evaluation hardware — an NVIDIA GeForce
// GTX Titan (Kepler GK110, compute capability 3.5) — using the figures quoted
// in §2 and §3.3 of the paper. Every limit the paper's occupancy discussion
// enumerates is a field here so the launch-parameter model (src/tuner) can
// reproduce §3.3 exactly.
#pragma once

#include <string>

#include "common/types.h"

namespace fusedml::vgpu {

struct DeviceSpec {
  std::string name = "Virtual GTX Titan";

  // --- Compute resources -------------------------------------------------
  int num_sms = 14;               ///< streaming multiprocessors
  int cores_per_sm = 192;         ///< CUDA cores per SM (2,688 total)
  double peak_gflops_dp = 1300.0; ///< ~1.3 TFLOPs double precision
  double clock_ghz = 0.837;

  // --- Memory system -----------------------------------------------------
  double mem_bandwidth_gbs = 288.0;     ///< global memory, ECC off
  usize global_mem_bytes = 6ull << 30;  ///< 6 GB
  usize l2_bytes = 1536ull << 10;       ///< 1.5 MB L2 (GK110)
  usize tex_cache_bytes = 48ull << 10;  ///< 48 KB read-only/texture per SM
  usize smem_per_sm_bytes = 48ull << 10;
  int smem_banks = 32;
  usize transaction_bytes = 128;        ///< global memory segment size

  // --- Occupancy limits (paper §3.3 list, CC >= 3.5) ----------------------
  int regs_per_sm = 64 * 1024;     ///< 64K 32-bit registers
  int max_threads_per_block = 1024;
  int max_threads_per_sm = 2048;   ///< 64 warps
  int max_blocks_per_sm = 8;       ///< paper's quoted limit
  int max_regs_per_thread = 255;
  int reg_alloc_unit = 256;        ///< register allocation granularity
  usize smem_alloc_unit = 256;     ///< shared memory allocation granularity
  int warp_alloc_granularity = 4;  ///< warps per block rounded up to this
  int warp_size = 32;

  // --- Host link -----------------------------------------------------------
  double pcie_bandwidth_gbs = 6.0;  ///< effective H2D (32 GB/s PCIe-Gen3 link;
                                    ///< ~6 GB/s effective matches the paper's
                                    ///< measured 939 ms for the ~5.3 GB KDD set)
  double pcie_latency_us = 10.0;

  int max_warps_per_sm() const { return max_threads_per_sm / warp_size; }
};

/// The paper's exact evaluation device.
DeviceSpec gtx_titan();

/// A smaller Kepler part — used in tests to check the models react to
/// resource limits rather than hard-coding Titan behaviour.
DeviceSpec small_kepler();

/// CPU-side model of the paper's host (Intel core-i7 3.4 GHz, 4C/8T) used for
/// the BIDMat-CPU / MKL comparison lines.
struct CpuSpec {
  std::string name = "Core i7-3770 class host";
  int threads = 8;                   ///< 8 hyper-threads, as in the paper
  double mem_bandwidth_gbs = 25.6;   ///< dual-channel DDR3-1600
  double peak_gflops_dp = 108.8;     ///< 4 cores * 8 DP flops/cycle * 3.4 GHz
};

CpuSpec paper_host_cpu();

}  // namespace fusedml::vgpu
