// The benchmark's workloads. Each drives only public entry points of the
// library (ml::script_library() runners, sysml::Runtime, kernels::OpRegistry,
// vgpu::Device session counters, serve::Server) and times its calls into
// them from here.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "recorder.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< observations behind the value
  std::string note;         ///< how it was computed (printed, not in JSON)
};

/// What one measured phase produced.
struct Phase {
  std::vector<double> sample_ms;  ///< host ms per sample, in completion order
  double seconds = 0.0;           ///< wall time of the closed loop
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages

  void fail(std::string why);
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything before the first timed sample: data generation, ingest or
  /// server start, and one untimed warm-up sample. The caller times it.
  virtual void setup(Recorder* rec) = 0;
  /// Reference and oracle runs; untimed and excluded from setup time.
  virtual void prepare_oracles(Phase& checks) = 0;
  /// Closed loop of timed samples for `seconds`; every sample's output is
  /// checked, and mismatches are counted as failures in `out`.
  virtual void measure(double seconds, Recorder* rec, Phase& out) = 0;
  /// Modeled-clock end-to-end metrics (modeled_ms, fusion_speedup).
  virtual void modeled_metrics(std::vector<Metric>& out) const = 0;
  /// Per-layer metrics, after measure(). Runs the registry probe on the
  /// workload's matrices (recorded into `rec` when tracing) and reports
  /// its results next to the counts the library returned.
  virtual void layer_metrics(Recorder* rec, Phase& checks,
                             std::vector<Metric>& out) = 0;
  /// Workload-specific diagnostics printed (not in the JSON line) by the
  /// traced run.
  virtual void print_details(std::ostream& os) const = 0;
  /// Host ms spent generating data during setup().
  double generate_ms() const { return generate_ms_; }

 protected:
  double generate_ms_ = 0.0;
};

/// Known workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Returns null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
