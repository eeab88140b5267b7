// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code around its calls into
// each layer of the library (and, where the library already returns a
// measured host duration such as RuntimeStats::plan_host_ms or
// KernelOutcome::wall_ms, as a child span of that length). Nothing inside
// the library is instrumented. Spans stay in memory and are summarised
// once, when the run ends, as self and inclusive host milliseconds per
// layer: a span's self time is its duration minus its children's.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct LayerTotals {
  std::uint64_t spans = 0;
  double inclusive_ms = 0.0;
  double self_ms = 0.0;
};

class Recorder {
 public:
  static constexpr int kNoParent = -1;

  /// Opens a span starting now and returns its id; end() closes it.
  int begin(std::string layer, std::string name, int parent = kNoParent,
            std::uint64_t key = 0);
  void end(int id);

  /// Records a finished span [start, start + dur_ms) and returns its id.
  int add(std::string layer, std::string name, Clock::time_point start,
          double dur_ms, int parent = kNoParent, std::uint64_t key = 0);

  /// Self and inclusive host ms per layer. Spans of one layer never nest
  /// in another span of the same layer, so inclusive time is a plain sum.
  std::map<std::string, LayerTotals> layers() const;

  /// Prints the per-layer table, with per-sample means over `samples`.
  void print(std::ostream& os, std::size_t samples) const;

 private:
  struct Span {
    std::string layer;
    std::string name;
    std::uint64_t key = 0;
    int parent = kNoParent;
    Clock::time_point start;
    double dur_ms = 0.0;
  };
  std::vector<Span> spans_;
};

/// RAII span around a call into one layer; a null recorder makes it a
/// no-op, so untraced runs pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(Recorder* rec, std::string layer, std::string name,
             int parent = Recorder::kNoParent, std::uint64_t key = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Parent id for child spans (kNoParent when untraced).
  int id() const { return id_; }

 private:
  Recorder* rec_;
  int id_ = Recorder::kNoParent;
};

}  // namespace perfbench
