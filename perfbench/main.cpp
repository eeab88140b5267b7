// Host-clock benchmark of the fused-kernel stack.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload (kdd_sparse, library_sweep or serve_closed) as a closed
// loop for the given seconds, checks every output against oracles that live
// in this directory, and prints one metric per line followed by a final
// JSON line {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the run is split into
// an untraced and a traced half and the metrics are the per-layer ones,
// after a table of self and inclusive host ms per layer. Exits 1 when any
// output is wrong and 2 on bad arguments.
#include <sys/resource.h>

#include <cmath>
#include <cstdint>
#include <exception>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "recorder.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace perfbench;

/// Setup is repeated this many times per run and its median reported, so
/// one slow round does not move setup_s.
constexpr int kSetupRounds = 5;
constexpr double kTailQuantile = 90.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool parse(int argc, char** argv, Args& a) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        a.workload = value;
        have[0] = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
        have[1] = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
        have[2] = a.seconds > 0 && a.seconds <= 600;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        a.trace = value == "1";
        have[3] = true;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have[0] && have[1] && have[2] && have[3];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_metric(const Metric& m) {
  std::cout << "metric " << std::left << std::setw(36) << m.name << std::right
            << std::setprecision(6) << std::setw(14) << m.value << " "
            << std::left << std::setw(6) << m.unit << std::right
            << " n=" << m.samples;
  if (!m.note.empty()) std::cout << "  (" << m.note << ")";
  std::cout << "\n";
}

std::string json_line(bool correct, std::uint64_t attempted,
                      std::uint64_t failed, const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
       << ms[i].value << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

int run(const Args& args) {
  Recorder recorder;
  Recorder* rec = args.trace ? &recorder : nullptr;

  // Set-up rounds: every round builds the workload from scratch; the last
  // one is kept. Only the kept round is traced.
  std::vector<double> setup_s, generate_ms;
  std::unique_ptr<Workload> w;
  for (int round = 0; round < kSetupRounds; ++round) {
    w.reset();
    w = make_workload(args.workload, args.seed);
    const Clock::time_point t0 = Clock::now();
    w->setup(round + 1 == kSetupRounds ? rec : nullptr);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    generate_ms.push_back(w->generate_ms());
  }

  Phase checks;  // reference runs and probes
  w->prepare_oracles(checks);

  std::vector<Metric> metrics;
  Phase main_phase;
  Phase traced_phase;
  if (!args.trace) {
    w->measure(args.seconds, nullptr, main_phase);
    const std::size_t n = main_phase.sample_ms.size();
    metrics.push_back({"setup_s", median(setup_s), "s", setup_s.size(),
                       "median over set-up rounds"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MiB", 1,
                       "peak resident set of this process"});
    std::ostringstream note;
    note << "nearest-rank p90 of per-sample host ms, "
         << samples_beyond(n, kTailQuantile) << " samples beyond it";
    metrics.push_back({"latency_ms_p90",
                       nearest_rank(main_phase.sample_ms, kTailQuantile), "ms",
                       n, note.str()});
    w->modeled_metrics(metrics);
    if (samples_beyond(n, kTailQuantile) < 10) {
      std::cerr << "warning: only " << samples_beyond(n, kTailQuantile)
                << " samples beyond p90; raise --seconds\n";
    }
  } else {
    w->measure(args.seconds / 2, nullptr, main_phase);
    w->measure(args.seconds / 2, rec, traced_phase);
    const double untraced = median(main_phase.sample_ms);
    const double traced = median(traced_phase.sample_ms);
    metrics.push_back({"la.generate_ms", median(generate_ms), "ms",
                       generate_ms.size(), "median over set-up rounds"});
    std::vector<Metric> layer;
    w->layer_metrics(rec, checks, layer);
    metrics.insert(metrics.end(), layer.begin(), layer.end());
    // sample.* come from the untraced half.
    metrics.push_back({"sample.host_ms_p50", untraced, "ms",
                       main_phase.sample_ms.size(),
                       "nearest-rank median of per-sample host ms, untraced"});
    metrics.push_back(
        {"sample.per_s",
         static_cast<double>(main_phase.sample_ms.size()) / main_phase.seconds,
         "1/s", main_phase.sample_ms.size(), "completed samples per second"});
    metrics.push_back({"trace.overhead_pct",
                       (traced - untraced) / untraced * 100.0, "%",
                       traced_phase.sample_ms.size(),
                       "traced vs untraced median sample host ms"});
    recorder.print(std::cout, traced_phase.sample_ms.size());
    w->print_details(std::cout);
  }

  for (const Metric& m : metrics) print_metric(m);

  const std::uint64_t attempted =
      main_phase.attempted + traced_phase.attempted + checks.attempted;
  std::uint64_t failed =
      main_phase.failed + traced_phase.failed + checks.failed;
  for (const Phase* p : {&checks, &main_phase, &traced_phase}) {
    for (const std::string& f : p->failures) std::cerr << "FAIL: " << f << "\n";
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::cerr << "FAIL: metric " << m.name << " is not finite\n";
      ++failed;
    }
  }
  const bool correct = failed == 0 && attempted > 0;
  std::cout << json_line(correct, std::max<std::uint64_t>(attempted, 1),
                         failed, metrics)
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args) ||
      perfbench::make_workload(args.workload, args.seed) == nullptr) {
    std::cerr << "usage: perfbench --workload <kdd_sparse|library_sweep|"
                 "serve_closed> --seed <n> --seconds <s> --trace <0|1>\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
