#include "vgpu/mem_tracker.h"

#include <algorithm>

namespace fusedml::vgpu {

void MemTracker::load_gather(std::span<const std::uint64_t> byte_addrs,
                             MemPath path) {
  if (byte_addrs.empty()) return;
  const std::uint64_t tx = gather_transactions(byte_addrs);
  charge_load(tx, byte_addrs.size() * sizeof(real), path);
}

void MemTracker::store_contiguous(std::uint64_t first_elem, int active,
                                  usize elem_bytes) {
  if (active <= 0) return;
  counters_.gst_transactions +=
      contiguous_transactions(first_elem * elem_bytes, active, elem_bytes);
  counters_.gst_bytes += static_cast<std::uint64_t>(active) * elem_bytes;
}

void MemTracker::store_scatter(int lanes, usize elem_bytes) {
  if (lanes <= 0) return;
  // A scattered partial-line store is a read-modify-write of its 128-byte
  // segment at DRAM: the line is fetched, merged, and written back — two
  // transactions per element, the cost that makes explicit transposition
  // so expensive (§3.1).
  counters_.gst_transactions += 2ull * static_cast<std::uint64_t>(lanes);
  counters_.gst_bytes += static_cast<std::uint64_t>(lanes) * elem_bytes;
}

void MemTracker::atomic_int(std::uint64_t ops,
                            std::uint64_t distinct_targets) {
  counters_.atomic_int_ops += ops;
  counters_.atomic_int_targets =
      std::max(counters_.atomic_int_targets, distinct_targets);
}

}  // namespace fusedml::vgpu
