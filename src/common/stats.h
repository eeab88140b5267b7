// Small descriptive-statistics helpers for bench result reporting.
#pragma once

#include <span>
#include <vector>

namespace fusedml {

/// Arithmetic mean. Returns 0 for an empty span.
double mean(std::span<const double> xs);

/// Sample standard deviation (n-1 denominator). Returns 0 for n < 2.
double stddev(std::span<const double> xs);

/// Geometric mean — the right way to average speedups. All inputs must be > 0.
double geomean(std::span<const double> xs);

/// Nearest-rank percentile, p in [0, 100]: the sample at 1-based rank
/// ceil(p * n / 100), clamped to [1, n] — always an observed value (p50 of
/// 1..100 is 50, p0 is the minimum, p100 the maximum). The one quantile
/// definition of the repo: histograms, SLO reports and bench JSON use it.
double percentile(std::span<const double> xs, double p);

}  // namespace fusedml
