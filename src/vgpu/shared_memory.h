// Per-block shared memory with Kepler-style bank accounting.
//
// Shared memory is interleaved across 32 banks at word granularity; a warp
// access that maps two lanes to the same bank (different words) serializes
// into multiple passes. The fused kernels' inter-vector aggregation lives
// here, so the model matters for the dense-vs-sparse discussion in §3.2.
//
// The single-lane accessors are called once per simulated lane, so they
// live in the header: the kernels' lane loops inline them, and only the
// failed bounds check leaves the loop (a cold, out-of-line throw).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "vgpu/mem_counters.h"

namespace fusedml::vgpu {

class SharedMemory {
 public:
  /// `words` double-precision words of shared memory; zero-initialized, as
  /// the kernels do explicitly in their init phase (Alg. 1 line 6).
  SharedMemory(usize words, int banks, MemCounters& counters);

  usize size() const { return data_.size(); }

  /// Plain (single-lane) access.
  real load(usize word) {
    bounds_check(word);
    ++counters_.smem_accesses;
    return data_[word];
  }
  void store(usize word, real value) {
    bounds_check(word);
    ++counters_.smem_accesses;
    data_[word] = value;
  }
  /// Intra-block atomic add (the inter-vector aggregation of Alg. 2 L14).
  /// Blocks execute one at a time and shared memory is private to the
  /// block, so a plain add is the correct semantics.
  void atomic_add(usize word, real value) {
    bounds_check(word);
    ++counters_.smem_accesses;
    ++counters_.atomic_shared_ops;
    data_[word] += value;
  }

  /// Warp-wide access for bank-conflict accounting: lane i touches
  /// word_addrs[i]. The access takes as many serialized passes as the most
  /// distinct words any one bank receives; lanes at the same word share one
  /// access (broadcast). Returns the passes charged.
  int warp_access(std::span<const usize> word_addrs);

 private:
  std::vector<real> data_;
  int banks_;
  /// banks_ - 1 when banks_ is a power of two (bank = word & mask), else 0
  /// (bank = word % banks_, which is also right for one bank).
  usize bank_mask_;
  MemCounters& counters_;

  void bounds_check(usize word) const {
    if (word >= data_.size()) [[unlikely]] out_of_bounds(word);
  }
  [[noreturn, gnu::cold]] void out_of_bounds(usize word) const;
};

}  // namespace fusedml::vgpu
