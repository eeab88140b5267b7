// Shared helpers for the paper-reproduction benches.
//
// Conventions every bench follows:
//  - prints a header naming the paper table/figure it regenerates;
//  - prints one ASCII table whose rows mirror the paper's series, with a
//    "paper" column quoting the numbers the paper reports where available;
//  - all timings are MODELED milliseconds from the virtual GPU's cost model
//    (GTX-Titan parameters) — see DESIGN.md §1 for why that is the honest
//    quantity on a GPU-less host;
//  - dataset sizes default to laptop scale, with --rows/--cols/--sparsity
//    flags to run the paper's full 500k-row configuration.
#pragma once

#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "common/error.h"
#include "common/json.h"
#include "common/resilience.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "obs/profile_flags.h"

namespace fusedml::bench {

/// Shared top-level exception barrier: every bench (and example) `main`
/// delegates here so a fusedml::Error exits with one clean line and a
/// non-zero status instead of std::terminate's abort + core dump. If
/// --profile armed a trace, it is flushed to disk on BOTH paths, so a
/// crashed bench still leaves the trace of everything up to the fault.
template <typename Run>
int guarded_main(Run&& run) {
  try {
    const int rc = run();
    obs::flush_profile();
    return rc;
  } catch (const Error& e) {
    obs::flush_profile();
    std::cerr << "error [" << to_string(e.code()) << "]: " << e.what()
              << "\n";
    return 1;
  } catch (const std::exception& e) {
    obs::flush_profile();
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

/// Standardized machine-readable bench record (--json <out>): every bench
/// writes `{"bench": ..., "metrics": {...}, "notes": {...}, "tables": {name:
/// csv}}` so CI and downstream plotting consume one format. When --profile /
/// --metrics armed the metrics registry, its full dump rides along under
/// "obs_metrics".
class JsonReport {
 public:
  /// Declares the --json flag on `cli` (call before cli.finish()).
  JsonReport(Cli& cli, std::string bench_name)
      : bench_(std::move(bench_name)),
        path_(cli.get_string("json", "",
                             "write a machine-readable result record here")) {}

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;
  ~JsonReport() { write(); }

  bool enabled() const { return !path_.empty(); }

  void add(const std::string& key, double value) {
    numbers_.emplace_back(key, value);
  }
  void add(const std::string& key, const std::string& value) {
    notes_.emplace_back(key, value);
  }
  void add_table(const std::string& name, const Table& t) {
    tables_.emplace_back(name, t.csv());
  }
  /// Standard silent-corruption-defense block (prefix allows several runs
  /// per bench): detections, rollbacks, and the verification bill.
  void add_resilience(const std::string& prefix, const ResilienceStats& s) {
    add(prefix + ".sdc_detected", static_cast<double>(s.sdc_detected));
    add(prefix + ".rollbacks", static_cast<double>(s.rollbacks));
    add(prefix + ".verify_launches", static_cast<double>(s.verify_launches));
    add(prefix + ".verify_overhead_ms", s.verify_ms);
    add(prefix + ".faults_seen", static_cast<double>(s.faults_seen));
    add(prefix + ".recoveries", static_cast<double>(s.recoveries));
  }

  /// Writes the record (idempotent; also called from the destructor).
  void write() {
    if (path_.empty() || written_) return;
    written_ = true;
    std::ofstream out(path_);
    if (!out) {
      std::cerr << "error: cannot open --json output file: " << path_ << "\n";
      return;
    }
    JsonWriter json(out);
    json.begin_object();
    json.member("bench", bench_);
    json.key("metrics").begin_object();
    for (const auto& [k, v] : numbers_) json.member(k, v);
    json.end_object();
    json.key("notes").begin_object();
    for (const auto& [k, v] : notes_) json.member(k, v);
    json.end_object();
    json.key("tables").begin_object();
    for (const auto& [k, v] : tables_) json.member(k, v);
    json.end_object();
    if (obs::metrics().enabled()) {
      json.key("obs_metrics");
      std::ostringstream ms;
      obs::metrics().write_json(ms);
      // write_json emits a complete JSON object; splice it in verbatim.
      std::string s = ms.str();
      while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
      out << s;
    }
    json.end_object();
    out << "\n";
  }

 private:
  std::string bench_;
  std::string path_;
  bool written_ = false;
  std::vector<std::pair<std::string, double>> numbers_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::pair<std::string, std::string>> tables_;
};

inline void print_header(const std::string& id, const std::string& what) {
  std::cout << "\n==================================================================\n"
            << id << " — " << what << "\n"
            << "==================================================================\n";
}

inline void print_note(const std::string& note) {
  std::cout << "note: " << note << "\n";
}

/// The paper's synthetic-sweep column counts (§4.1: "we vary the number of
/// columns from 200 to 4,096").
inline std::vector<index_t> paper_column_sweep() {
  return {200, 400, 800, 1024, 2048, 4096};
}

/// Exit-with-usage helper shared by all benches.
inline bool handle_help(const Cli& cli) {
  if (cli.help_requested()) {
    std::cout << cli.usage();
    return true;
  }
  return false;
}

inline std::string fmt(double v, int precision = 2) {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed << v;
  return os.str();
}

}  // namespace fusedml::bench
