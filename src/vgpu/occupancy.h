// CUDA occupancy calculation, reproducing the NVIDIA occupancy calculator
// the paper cites ([30]) for the launch-parameter model of §3.3.
//
// Given a kernel's per-thread register use, per-block shared memory, and the
// block size, computes how many blocks (and thus warps) can be resident per
// SM, honouring every limit the paper lists: registers, shared memory,
// threads per block / per SM, active-block cap, and the allocation
// granularities (256 registers, 256 B shared memory, 4-warp rounding).
#pragma once

#include "common/types.h"
#include "vgpu/device_spec.h"

namespace fusedml::vgpu {

struct KernelResources {
  int regs_per_thread = 32;
  usize smem_per_block = 0;  ///< bytes of shared memory per block
};

struct OccupancyResult {
  int blocks_per_sm = 0;
  int warps_per_block = 0;
  int active_warps_per_sm = 0;
  int active_threads_per_sm = 0;
  double occupancy = 0.0;  ///< active warps / max warps, in [0,1]

  /// Which limit bound the result (useful in tests and the Fig. 6 bench).
  enum class Limiter { kBlocks, kWarps, kRegisters, kSharedMemory, kInvalid };
  Limiter limiter = Limiter::kInvalid;
};

/// Computes occupancy for a kernel launch of `block_size` threads per block.
/// Returns occupancy 0 with Limiter::kInvalid if the launch is impossible
/// (block too large, registers over the per-thread cap, smem over the SM).
OccupancyResult compute_occupancy(const DeviceSpec& spec, int block_size,
                                  const KernelResources& res);

/// The block size in {32, 64, ..., 1024} maximizing active warps per SM; ties
/// broken toward larger blocks (fewer blocks => cheaper inter-block
/// aggregation, matching §3.3's "increase ... block size to their maximum
/// possible values, while achieving the maximum possible occupancy").
int best_block_size(const DeviceSpec& spec, const KernelResources& res);

}  // namespace fusedml::vgpu
