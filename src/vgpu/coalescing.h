// The CUDA global-memory coalescer, as a counting model.
//
// A warp's memory instruction is serviced by one transaction per distinct
// 128-byte segment touched by its active lanes. Contiguous, aligned accesses
// by 32 lanes of 8-byte words therefore cost 2 transactions; a fully
// scattered gather costs up to 32.
#pragma once

#include <cstdint>
#include <span>

#include "common/types.h"

namespace fusedml::vgpu {

inline constexpr std::uint64_t kSegmentBytes = 128;

/// Transactions for an arbitrary gather: one address per active lane.
/// Distinct 128-byte segments are deduplicated, exactly like the hardware.
std::uint64_t gather_transactions(std::span<const std::uint64_t> byte_addrs);

/// Segment index of a byte address.
inline std::uint64_t segment_of(std::uint64_t byte_addr) {
  return byte_addr / kSegmentBytes;
}

// The two closed forms below run once per warp access on the dense kernels'
// row loops; they live in the header so those loops inline them.

/// Transactions for `active` lanes reading consecutive elements of size
/// `elem_bytes` starting at byte offset `first_byte` (lane i reads element i).
inline std::uint64_t contiguous_transactions(std::uint64_t first_byte,
                                             int active, usize elem_bytes) {
  if (active <= 0) return 0;
  const std::uint64_t last_byte =
      first_byte + static_cast<std::uint64_t>(active) * elem_bytes - 1;
  return segment_of(last_byte) - segment_of(first_byte) + 1;
}

/// Transactions for a contiguous stream of `bytes` accessed by successive
/// 32-lane warps: the union of segments plus one extra per internal warp
/// boundary that is not 128-byte aligned (that segment is fetched by both
/// warps).
inline std::uint64_t stream_transactions(std::uint64_t first_byte,
                                         std::uint64_t bytes) {
  if (bytes == 0) return 0;
  const std::uint64_t base =
      segment_of(first_byte + bytes - 1) - segment_of(first_byte) + 1;
  const std::uint64_t warp_bytes = 32 * 8;  // worst case lane width
  const std::uint64_t warps = (bytes + warp_bytes - 1) / warp_bytes;
  const bool boundary_aligned =
      (first_byte % kSegmentBytes == 0) && (warp_bytes % kSegmentBytes == 0);
  return base + (boundary_aligned || warps == 0 ? 0 : warps - 1);
}

}  // namespace fusedml::vgpu
