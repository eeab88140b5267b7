#include "vgpu/coalescing.h"

#include <algorithm>
#include <array>

#include "common/error.h"

namespace fusedml::vgpu {

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
