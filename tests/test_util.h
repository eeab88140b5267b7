// Shared helpers for the fusedml test suites.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "la/vector_ops.h"

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
