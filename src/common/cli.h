// Minimal command-line flag parser for benches and examples.
//
// Supports `--name value` and `--name=value`; unknown flags raise so that
// typos in bench invocations fail loudly instead of silently using defaults.
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"

namespace fusedml {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// Declare a flag with a default; returns the parsed value. Call all
  /// declarations, then finish() to reject unknown flags. A value that does
  /// not parse whole — an integer, a finite number, or one of
  /// true/false/1/0/yes/no — raises an Error naming the flag.
  std::string get_string(const std::string& name, const std::string& def,
                         const std::string& help = "");
  long long get_int(const std::string& name, long long def,
                    const std::string& help = "");
  double get_double(const std::string& name, double def,
                    const std::string& help = "");
  bool get_bool(const std::string& name, bool def,
                const std::string& help = "");

  /// The validated reader for every flag that sizes a run — dimensions,
  /// iteration/request/worker counts (T = index_t: an integer in
  /// [1, INT32_MAX]) and scale factors (T = double: finite and > 0). A
  /// value that does not parse whole or breaks the rule raises an Error
  /// naming the flag here, before a caller narrows or divides by it.
  template <typename T>
  T get_positive(const std::string& name, T def, const std::string& help = "");

  /// A comma-separated list of get_positive<index_t> values, e.g.
  /// `--cols 200,400`. An empty list, an empty item, or an item that does
  /// not parse whole into [1, INT32_MAX] raises an Error naming the flag.
  template <typename T>
  std::vector<T> get_positive_list(const std::string& name,
                                   const std::vector<T>& def,
                                   const std::string& help = "");

  /// True when --help was passed; callers should print usage() and exit 0.
  bool help_requested() const { return help_requested_; }

  /// Verify that every flag given on the command line was declared.
  void finish() const;

  /// Usage text assembled from the declarations.
  std::string usage() const;

 private:
  std::string program_;
  std::unordered_map<std::string, std::string> args_;
  std::unordered_set<std::string> declared_;
  std::vector<std::string> help_lines_;
  bool help_requested_ = false;

  void declare(const std::string& name, const std::string& def,
               const std::string& help);
};

/// One extent of a paper dataset shrunk by a bench's --scale factor:
/// `full_extent / scale`, truncated. The quotient is formed and checked in
/// double first, so a tiny scale cannot overflow the narrowing cast; a
/// result outside [1, INT32_MAX] raises an Error that names --scale.
index_t scaled_extent(double full_extent, double scale);

}  // namespace fusedml
