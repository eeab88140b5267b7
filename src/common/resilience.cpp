#include "common/resilience.h"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "common/error.h"

namespace fusedml {

RetryPolicy RetryPolicy::within_deadline(double spent_ms,
                                         double deadline_ms) const {
  if (deadline_ms <= 0.0) return *this;
  if (spent_ms >= deadline_ms) {
    throw DeadlineError("modeled deadline exceeded before dispatch (" +
                        std::to_string(spent_ms) + " of " +
                        std::to_string(deadline_ms) + " ms spent)");
  }
  RetryPolicy clamped = *this;
  const double remaining_ms = deadline_ms - spent_ms;
  clamped.max_total_overhead_ms =
      max_total_overhead_ms > 0.0
          ? std::min(max_total_overhead_ms, remaining_ms)
          : remaining_ms;
  return clamped;
}

void RunReport::print(std::ostream& os) const {
  os << "== resilience report: " << label_ << " ==\n";
  if (!total_.any()) {
    os << "  no faults observed\n";
    return;
  }
  const auto line = [&os](const std::string& name,
                          const ResilienceStats& s) {
    os << "  " << std::left << std::setw(18) << name << std::right
       << " faults " << std::setw(6) << s.faults_seen << "  retries "
       << std::setw(6) << s.retries << "  fallbacks " << std::setw(4)
       << s.fallbacks << " (gpu " << s.fallbacks_to_baseline << ", cpu "
       << s.fallbacks_to_cpu << ")  breaker-skips " << std::setw(4)
       << s.breaker_skips << "  recoveries " << std::setw(6) << s.recoveries
       << "  backoff " << std::fixed << std::setprecision(3) << std::setw(9)
       << s.backoff_ms << " ms  wasted " << std::setw(9) << s.wasted_ms
       << " ms  sdc " << std::setw(4) << s.sdc_detected << "  rollbacks "
       << std::setw(4) << s.rollbacks << "  verify " << std::setw(6)
       << s.verify_launches << " (" << s.verify_ms << " ms)\n";
  };
  for (const auto& [name, stats] : sources_) line(name, stats);
  line("total", total_);
}

}  // namespace fusedml
