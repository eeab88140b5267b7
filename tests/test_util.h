// Shared helpers for the fusedml test suites.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "la/vector_ops.h"
#include "vgpu/mem_counters.h"

namespace fusedml::test {

/// Asserts two vectors match within an absolute-plus-relative tolerance.
/// Atomic aggregation orders differ between backends, so results are equal
/// only up to floating-point reassociation.
inline void expect_vectors_near(std::span<const real> expected,
                                std::span<const real> actual,
                                real tol = 1e-9) {
  ASSERT_EQ(expected.size(), actual.size());
  for (usize i = 0; i < expected.size(); ++i) {
    const real scale = std::max<real>(1.0, std::abs(expected[i]));
    ASSERT_NEAR(expected[i], actual[i], tol * scale)
        << "at index " << i;
  }
}

/// Asserts two vectors are equal bit for bit.
inline void expect_same_bits(std::span<const real> want,
                             std::span<const real> got) {
  ASSERT_EQ(want.size(), got.size());
  for (usize i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(want[i]),
              std::bit_cast<std::uint64_t>(got[i]))
        << "at index " << i;
  }
}

/// Asserts two launches booked the same value in every counter.
inline void expect_same_counters(const vgpu::MemCounters& a,
                                 const vgpu::MemCounters& b) {
  EXPECT_EQ(a.gld_transactions, b.gld_transactions);
  EXPECT_EQ(a.gst_transactions, b.gst_transactions);
  EXPECT_EQ(a.gld_bytes, b.gld_bytes);
  EXPECT_EQ(a.gst_bytes, b.gst_bytes);
  EXPECT_EQ(a.l2_hit_transactions, b.l2_hit_transactions);
  EXPECT_EQ(a.tex_transactions, b.tex_transactions);
  EXPECT_EQ(a.atomic_global_ops, b.atomic_global_ops);
  EXPECT_EQ(a.atomic_shared_ops, b.atomic_shared_ops);
  EXPECT_EQ(a.atomic_global_targets, b.atomic_global_targets);
  EXPECT_EQ(a.atomic_int_ops, b.atomic_int_ops);
  EXPECT_EQ(a.atomic_int_targets, b.atomic_int_targets);
  EXPECT_EQ(a.smem_accesses, b.smem_accesses);
  EXPECT_EQ(a.smem_bank_conflicts, b.smem_bank_conflicts);
  EXPECT_EQ(a.shuffle_ops, b.shuffle_ops);
  EXPECT_EQ(a.local_spill_bytes, b.local_spill_bytes);
  EXPECT_EQ(a.flops, b.flops);
}

/// Weights frozen in tests/golden/legacy_oracles.golden under `name` (one
/// line: the name, then every weight printed with %a). Empty if absent.
inline std::vector<real> frozen_weights(const std::string& name) {
  std::ifstream in(FUSEDML_GOLDEN_DIR "/legacy_oracles.golden");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key != name) continue;
    std::vector<real> w;
    for (std::string tok; fields >> tok;) {
      w.push_back(std::strtod(tok.c_str(), nullptr));
    }
    return w;
  }
  return {};
}

}  // namespace fusedml::test
