// Accounting facade kernels use to charge memory traffic to the counters.
//
// The virtual GPU executes kernels functionally on host memory; what makes a
// run a *GPU* run is that every access is also charged here through the
// coalescing model. Kernels state which path serves a load:
//   kDram    — a cold global-memory access,
//   kL2      — a temporal-reuse hit (the fused kernels' second pass over a
//              row, guaranteed when the working set fits in L2 — §3),
//   kTexture — the read-only/texture path (the paper binds y to texture
//              memory: §4.1 "the input vector y is always bound to texture
//              memory").
//
// The per-access charges the dense kernels' row loops issue (load_contiguous,
// load_stream, atomic_global and the charge they share) are defined in this
// header: out of line, each call is an opaque function call that keeps the
// compiler from holding the loops' register state across it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/types.h"
#include "vgpu/coalescing.h"
#include "vgpu/mem_counters.h"

namespace fusedml::vgpu {

enum class MemPath { kDram, kL2, kTexture };

class MemTracker {
 public:
  explicit MemTracker(MemCounters& counters) : counters_(counters) {}

  /// Warp-contiguous load: `active` lanes read consecutive elements of
  /// `elem_bytes` starting at element index `first_elem`.
  void load_contiguous(std::uint64_t first_elem, int active, usize elem_bytes,
                       MemPath path = MemPath::kDram) {
    if (active <= 0) return;
    const std::uint64_t tx =
        contiguous_transactions(first_elem * elem_bytes, active, elem_bytes);
    charge_load(tx, static_cast<std::uint64_t>(active) * elem_bytes, path);
  }

  /// Gather load with per-lane byte addresses (e.g. y[col_idx[i]]).
  void load_gather(std::span<const std::uint64_t> byte_addrs,
                   MemPath path = MemPath::kDram);

  /// Pre-computed warp-level traffic (e.g. the sparse kernels' cross-vector
  /// coalescing helper already counted the distinct segments).
  void load_precomputed(std::uint64_t transactions, std::uint64_t bytes,
                        MemPath path = MemPath::kDram) {
    charge_load(transactions, bytes, path);
  }

  /// Bulk contiguous stream of `count` elements processed by successive
  /// 32-lane warps — closed-form transaction count so dense kernels can
  /// charge a whole row in O(1) instead of per-chunk.
  void load_stream(std::uint64_t first_elem, std::uint64_t count,
                   usize elem_bytes, MemPath path = MemPath::kDram) {
    const std::uint64_t bytes = count * elem_bytes;
    charge_load(stream_transactions(first_elem * elem_bytes, bytes), bytes,
                path);
  }

  /// Warp-contiguous store.
  void store_contiguous(std::uint64_t first_elem, int active, usize elem_bytes);

  /// Scattered store — one transaction per lane (the explicit-transpose
  /// baseline's pain).
  void store_scatter(int lanes, usize elem_bytes);

  /// Global double-precision atomic adds (CAS loops on CC 3.5): `ops`
  /// operations spread over `distinct_targets` addresses (the cost model
  /// derives contention from the ratio).
  void atomic_global(std::uint64_t ops, std::uint64_t distinct_targets) {
    counters_.atomic_global_ops += ops;
    counters_.atomic_global_targets =
        std::max(counters_.atomic_global_targets, distinct_targets);
  }

  /// Native integer atomics (histogram counts, cursors, semaphores).
  void atomic_int(std::uint64_t ops, std::uint64_t distinct_targets);

  void add_flops(std::uint64_t n) { counters_.flops += n; }

  /// Register-indexed access that the compiler would demote to local memory
  /// (§3.2: "if the index value is unknown at compile time, CUDA forces
  /// these accesses to use global memory instead of registers").
  void local_spill(std::uint64_t bytes) { counters_.local_spill_bytes += bytes; }

  MemCounters& counters() { return counters_; }

 private:
  MemCounters& counters_;

  void charge_load(std::uint64_t transactions, std::uint64_t bytes,
                   MemPath path) {
    switch (path) {
      case MemPath::kDram:
        counters_.gld_transactions += transactions;
        counters_.gld_bytes += bytes;
        break;
      case MemPath::kL2:
        counters_.l2_hit_transactions += transactions;
        break;
      case MemPath::kTexture:
        counters_.tex_transactions += transactions;
        break;
    }
  }
};

}  // namespace fusedml::vgpu
