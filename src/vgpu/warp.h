// Warp-level primitives of the Kepler ISA used by the paper's kernels:
// the shuffle-based intra-vector / intra-warp reduction (§3.1: "aggregated
// using the shuffle instruction available on NVIDIA Kepler architectures").
//
// In the virtual GPU a vector's lanes live in a contiguous span of values;
// the reduction helpers fold them in log2(width) shuffle steps and charge
// the shuffle-op counter, which the cost model prices like ALU work.
#pragma once

#include <bit>
#include <span>

#include "common/error.h"
#include "common/types.h"
#include "vgpu/mem_counters.h"

namespace fusedml::vgpu {

/// True when `width` is a power of two not exceeding the warp size — the
/// only widths __shfl_down-style reductions support.
inline bool valid_reduce_width(int width) {
  return width >= 1 && width <= 32 && std::has_single_bit(static_cast<unsigned>(width));
}

/// Butterfly reduction over `lanes` partial values (one per lane of a
/// vector), exactly as a __shfl_down loop would fold them. Returns the sum
/// that lane 0 would hold. Charges one shuffle op per lane per step.
real shuffle_reduce_sum(std::span<const real> lanes, MemCounters& counters);

}  // namespace fusedml::vgpu
