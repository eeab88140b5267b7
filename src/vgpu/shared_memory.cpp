#include "vgpu/shared_memory.h"

#include <algorithm>
#include <array>
#include <string>

#include "common/error.h"

namespace fusedml::vgpu {

SharedMemory::SharedMemory(usize words, int banks, MemCounters& counters)
    : data_(words, real{0}),
      banks_(banks),
      bank_mask_(banks > 0 && (banks & (banks - 1)) == 0
                     ? static_cast<usize>(banks - 1)
                     : 0),
      counters_(counters) {
  // warp_access tracks the banks in use in one 32-bit mask.
  FUSEDML_CHECK(banks_ >= 1 && banks_ <= 32,
                "shared-memory bank count " + std::to_string(banks_) +
                    " is outside [1, 32]");
}

void SharedMemory::out_of_bounds(usize word) const {
  detail::throw_check_failure(
      "word < size()", __FILE__, __LINE__,
      "shared memory access out of bounds: word " + std::to_string(word) +
          " of " + std::to_string(data_.size()));
}

int SharedMemory::warp_access(std::span<const usize> word_addrs) {
  FUSEDML_CHECK(word_addrs.size() <= 32, "warp has at most 32 lanes");
  // One pass over the lanes. `used` marks the banks seen so far, and a
  // bank's distinct-word count is set when its bit is, so nothing is zeroed
  // per call. A lane in a used bank adds a word unless an earlier lane holds
  // the same word (equal words share a bank); only those lanes scan back.
  std::uint32_t used = 0;
  std::array<int, 32> words_in_bank;  // read only where `used` has the bit
  int passes = 1;
  for (auto it = word_addrs.begin(); it != word_addrs.end(); ++it) {
    const usize addr = *it;
    bounds_check(addr);
    const auto bank = static_cast<unsigned>(
        bank_mask_ != 0 ? addr & bank_mask_
                        : addr % static_cast<usize>(banks_));
    const std::uint32_t bit = std::uint32_t{1} << bank;
    if ((used & bit) == 0) {
      used |= bit;
      words_in_bank[bank] = 1;
    } else if (std::find(word_addrs.begin(), it, addr) == it) {
      passes = std::max(passes, ++words_in_bank[bank]);
    }
  }
  counters_.smem_accesses += word_addrs.size();
  counters_.smem_bank_conflicts += static_cast<std::uint64_t>(passes - 1);
  return passes;
}

}  // namespace fusedml::vgpu
