#include "vgpu/warp.h"

namespace fusedml::vgpu {

real shuffle_reduce_sum(std::span<const real> lanes, MemCounters& counters) {
  FUSEDML_CHECK(valid_reduce_width(static_cast<int>(lanes.size())),
                "reduce width must be a power of two <= 32");
  // Copy so we can fold without mutating caller state.
  real buf[32];
  const int n = static_cast<int>(lanes.size());
  for (int i = 0; i < n; ++i) buf[i] = lanes[i];
  for (int offset = n / 2; offset > 0; offset /= 2) {
    for (int lane = 0; lane < offset; ++lane) {
      buf[lane] += buf[lane + offset];  // __shfl_down(sum, offset)
    }
    counters.shuffle_ops += static_cast<std::uint64_t>(offset);
  }
  return buf[0];
}

}  // namespace fusedml::vgpu
