#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace fusedml {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - m) * (x - m);
  return std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

double geomean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) {
    FUSEDML_CHECK(x > 0.0, "geomean requires strictly positive inputs");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double percentile(std::span<const double> xs, double p) {
  FUSEDML_CHECK(!xs.empty(), "percentile of empty span");
  FUSEDML_CHECK(p >= 0.0 && p <= 100.0, "percentile must be in [0,100]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  // p * n / 100 (not p / 100 * n) is exact for integer p and n, so e.g.
  // p99 of 100 samples is rank 99, not 100.
  const double rank =
      std::ceil(p * static_cast<double>(sorted.size()) / 100.0);
  const auto r = std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1,
                                         sorted.size());
  return sorted[r - 1];
}

}  // namespace fusedml
