// Kernel launch configuration — the tunables of §3.3 (Table 3's notation).
#pragma once

#include "common/types.h"
#include "vgpu/occupancy.h"

namespace fusedml::vgpu {

struct LaunchConfig {
  /// Kernel name shown in traces. Launch sites set this; must point at a
  /// string literal (or otherwise outlive the launch).
  const char* label = "kernel";
  int grid_size = 1;    ///< number of thread blocks
  int block_size = 32;  ///< BS: threads per block
  int vector_size = 1;  ///< VS: cooperating threads per row (1..32 or BS)
  int coarsening = 1;   ///< C: rows processed per vector
  int thread_load = 1;  ///< TL: elements per thread per row (dense kernels)
  usize smem_words = 0; ///< dynamic shared memory, in 8-byte words
  KernelResources resources{};  ///< regs/thread + smem bytes for occupancy

  int num_vectors_per_block() const { return block_size / vector_size; }
  int total_vectors() const { return grid_size * num_vectors_per_block(); }

  /// Validity for the virtual device (block size caps etc.) is checked by
  /// the executor at launch; this checks only internal consistency.
  bool internally_consistent() const {
    return grid_size > 0 && block_size > 0 && vector_size > 0 &&
           coarsening > 0 && thread_load > 0 &&
           block_size % vector_size == 0;
  }
};

}  // namespace fusedml::vgpu
