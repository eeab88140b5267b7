// Shared accounting for the ML solvers: how much time went into the generic
// pattern vs BLAS-1 — the split Table 2 reports — plus launch counts for the
// end-to-end comparisons of Tables 5/6.
#pragma once

#include <cstdint>

#include "common/resilience.h"
#include "kernels/op_registry.h"

namespace fusedml::ml {

struct SolverStats {
  int iterations = 0;
  double pattern_modeled_ms = 0.0;
  double blas1_modeled_ms = 0.0;
  double pattern_wall_ms = 0.0;
  double blas1_wall_ms = 0.0;
  std::uint64_t launches = 0;
  /// Faults absorbed across every op the solver issued (retries, modeled
  /// backoff, backend fallbacks) — the solver-level resilience surface.
  ResilienceStats resilience;

  void add_pattern(const kernels::KernelOutcome& r) {
    pattern_modeled_ms += r.modeled_ms;
    pattern_wall_ms += r.wall_ms;
    launches += r.launches;
    resilience += r.resilience;
  }
  void add_blas1(const kernels::KernelOutcome& r) {
    blas1_modeled_ms += r.modeled_ms;
    blas1_wall_ms += r.wall_ms;
    launches += r.launches;
    resilience += r.resilience;
  }

  double total_modeled_ms() const {
    return pattern_modeled_ms + blas1_modeled_ms;
  }
  double total_wall_ms() const { return pattern_wall_ms + blas1_wall_ms; }

  /// Table-2-style percentages, over the wall clock of the functional run.
  double pattern_wall_percent() const {
    const double total = total_wall_ms();
    return total > 0.0 ? 100.0 * pattern_wall_ms / total : 0.0;
  }
  double blas1_wall_percent() const {
    const double total = total_wall_ms();
    return total > 0.0 ? 100.0 * blas1_wall_ms / total : 0.0;
  }
};

}  // namespace fusedml::ml
