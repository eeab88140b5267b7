#include "vgpu/shared_memory.h"

#include <algorithm>
#include <array>
#include <string>

#include "common/error.h"

namespace fusedml::vgpu {

SharedMemory::SharedMemory(usize words, int banks, MemCounters& counters)
    : data_(words, real{0}), banks_(banks), counters_(counters) {
  // warp_access tracks per-bank state in 32-entry arrays (one per lane).
  FUSEDML_CHECK(banks_ >= 1 && banks_ <= 32,
                "shared-memory bank count " + std::to_string(banks_) +
                    " is outside [1, 32]");
}

void SharedMemory::bounds_check(usize word) const {
  FUSEDML_CHECK(word < data_.size(), "shared memory access out of bounds");
}

real SharedMemory::load(usize word) {
  bounds_check(word);
  ++counters_.smem_accesses;
  return data_[word];
}

void SharedMemory::store(usize word, real value) {
  bounds_check(word);
  ++counters_.smem_accesses;
  data_[word] = value;
}

void SharedMemory::atomic_add(usize word, real value) {
  bounds_check(word);
  ++counters_.smem_accesses;
  ++counters_.atomic_shared_ops;
  // Blocks execute one at a time and shared memory is private to the
  // block, so a plain add is the correct semantics.
  data_[word] += value;
}

int SharedMemory::warp_access(std::span<const usize> word_addrs) {
  FUSEDML_CHECK(word_addrs.size() <= 32, "warp has at most 32 lanes");
  std::array<int, 32> bank_load{};  // lanes per bank this access
  std::array<usize, 32> bank_word{};
  std::array<bool, 32> bank_used{};
  int passes = 1;
  for (usize addr : word_addrs) {
    bounds_check(addr);
    ++counters_.smem_accesses;
    const int bank = static_cast<int>(addr % static_cast<usize>(banks_));
    if (bank_used[bank] && bank_word[bank] != addr) {
      // Same bank, different word: extra pass. Same word broadcasts free.
      passes = std::max(passes, ++bank_load[bank] + 1);
    } else {
      bank_used[bank] = true;
      bank_word[bank] = addr;
    }
  }
  counters_.smem_bank_conflicts += static_cast<std::uint64_t>(passes - 1);
  return passes;
}

void SharedMemory::fill(real value) {
  std::fill(data_.begin(), data_.end(), value);
}

}  // namespace fusedml::vgpu
