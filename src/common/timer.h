// Wall-clock timing utilities used by benches and the Table-2 profiler.
#pragma once

#include <chrono>
#include <string>
#include <unordered_map>

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

  double elapsed_s() const { return elapsed_ms() / 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Accumulates named time buckets — the instrument behind Table 2's
/// "percentage of CPU compute time in pattern vs BLAS-1" breakdown.
class Profiler {
 public:
  /// Add `ms` milliseconds to bucket `name`.
  void add(const std::string& name, double ms);

  /// Total across all buckets.
  double total_ms() const;

  /// Bucket as a percentage of the total (0 if total is 0).
  double percent(const std::string& name) const;

  void clear();

 private:
  std::unordered_map<std::string, double> buckets_;
};

/// RAII helper: times a scope into a Profiler bucket.
class ScopedTimer {
 public:
  ScopedTimer(Profiler& profiler, std::string bucket)
      : profiler_(profiler), bucket_(std::move(bucket)) {}
  ~ScopedTimer() { profiler_.add(bucket_, timer_.elapsed_ms()); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Profiler& profiler_;
  std::string bucket_;
  Timer timer_;
};

}  // namespace fusedml
