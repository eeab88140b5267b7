// Wall-clock stopwatch: the host time a launch or a plan build reports.
#pragma once

#include <chrono>

namespace fusedml {

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() { reset(); }

  void reset() { start_ = clock::now(); }

  /// Elapsed time since construction / last reset, in milliseconds.
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(clock::now() - start_)
        .count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace fusedml
