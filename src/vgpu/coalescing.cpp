#include "vgpu/coalescing.h"

#include <algorithm>
#include <array>

#include "common/error.h"

namespace fusedml::vgpu {

std::uint64_t strided_transactions(std::uint64_t first_byte, int active,
                                   std::uint64_t stride_bytes,
                                   usize elem_bytes) {
  if (active <= 0) return 0;
  if (stride_bytes <= elem_bytes) {
    return contiguous_transactions(first_byte, active, elem_bytes);
  }
  // Strided lanes: count distinct segments along the arithmetic progression.
  std::uint64_t count = 0;
  std::uint64_t prev_segment = ~0ull;
  for (int lane = 0; lane < active; ++lane) {
    const std::uint64_t addr = first_byte + lane * stride_bytes;
    // An element may straddle a segment boundary.
    const std::uint64_t s0 = segment_of(addr);
    const std::uint64_t s1 = segment_of(addr + elem_bytes - 1);
    if (s0 != prev_segment) ++count;
    if (s1 != s0) ++count;
    prev_segment = s1;
  }
  return count;
}

std::uint64_t gather_transactions(std::span<const std::uint64_t> byte_addrs) {
  FUSEDML_CHECK(byte_addrs.size() <= 32, "a warp has at most 32 lanes");
  if (byte_addrs.empty()) return 0;
  std::array<std::uint64_t, 32> segments{};
  usize n = 0;
  for (std::uint64_t addr : byte_addrs) segments[n++] = segment_of(addr);
  std::sort(segments.begin(), segments.begin() + n);
  std::uint64_t count = 1;
  for (usize i = 1; i < n; ++i) {
    if (segments[i] != segments[i - 1]) ++count;
  }
  return count;
}

}  // namespace fusedml::vgpu
