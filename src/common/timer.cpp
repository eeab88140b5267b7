#include "common/timer.h"

namespace fusedml {

void Profiler::add(const std::string& name, double ms) { buckets_[name] += ms; }

double Profiler::total_ms() const {
  double total = 0.0;
  for (const auto& [_, ms] : buckets_) total += ms;
  return total;
}

double Profiler::percent(const std::string& name) const {
  const double total = total_ms();
  const auto it = buckets_.find(name);
  if (total <= 0.0 || it == buckets_.end()) return 0.0;
  return 100.0 * it->second / total;
}

void Profiler::clear() { buckets_.clear(); }

}  // namespace fusedml
