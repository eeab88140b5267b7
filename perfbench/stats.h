// Order statistics used by every number the benchmark prints.
//
// One definition throughout: the nearest-rank percentile. For n sorted
// samples, the q-th percentile is the sample at rank ceil(q/100 * n)
// (1-based), so it is always an observed value and p50 of 1..100 is 50.
// The library's own percentile helpers are deliberately not used: their
// definition may change, and that must not move the benchmark's numbers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `values` (q in (0, 100]); 0 for no samples.
inline double nearest_rank(std::span<const double> values, double q) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

inline double median(std::span<const double> values) {
  return nearest_rank(values, 50.0);
}

/// Number of samples strictly beyond the nearest-rank q-th percentile's
/// rank — a tail percentile is reported as a headline only when this is at
/// least ten.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

inline double geomean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace perfbench
