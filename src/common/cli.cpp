#include "common/cli.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <type_traits>

#include "common/error.h"

namespace fusedml {

namespace {
/// `text` as a base-10 integer, or nullopt unless all of it parses and the
/// value fits a long long.
std::optional<long long> parse_int(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno != 0) return std::nullopt;
  return v;
}

/// `text` as a finite double, or nullopt unless all of it parses without a
/// range error.
std::optional<double> parse_double(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno != 0 || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}
}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "program";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    FUSEDML_CHECK(arg.rfind("--", 0) == 0, "expected --flag, got: " + arg);
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      args_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args_[arg] = argv[++i];
    } else {
      args_[arg] = "true";  // bare flag => boolean true
    }
  }
}

void Cli::declare(const std::string& name, const std::string& def,
                  const std::string& help) {
  declared_.insert(name);
  help_lines_.push_back("  --" + name + " (default: " + def + ")" +
                        (help.empty() ? "" : "  " + help));
}

std::string Cli::get_string(const std::string& name, const std::string& def,
                            const std::string& help) {
  declare(name, def, help);
  const auto it = args_.find(name);
  return it == args_.end() ? def : it->second;
}

long long Cli::get_int(const std::string& name, long long def,
                       const std::string& help) {
  declare(name, std::to_string(def), help);
  const auto it = args_.find(name);
  if (it == args_.end()) return def;
  if (const auto v = parse_int(it->second)) return *v;
  throw Error("--" + name + " must be an integer, got " + it->second);
}

double Cli::get_double(const std::string& name, double def,
                       const std::string& help) {
  declare(name, std::to_string(def), help);
  const auto it = args_.find(name);
  if (it == args_.end()) return def;
  if (const auto v = parse_double(it->second)) return *v;
  throw Error("--" + name + " must be a finite number, got " + it->second);
}

bool Cli::get_bool(const std::string& name, bool def,
                   const std::string& help) {
  declare(name, def ? "true" : "false", help);
  const auto it = args_.find(name);
  if (it == args_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw Error("--" + name + " must be true/false/1/0/yes/no, got " + v);
}

template <typename T>
T Cli::get_positive(const std::string& name, T def, const std::string& help) {
  static_assert(std::is_same_v<T, index_t> || std::is_same_v<T, double>);
  declare(name, std::to_string(def), help);
  const auto it = args_.find(name);
  if (it == args_.end()) return def;
  if constexpr (std::is_same_v<T, double>) {
    const auto v = parse_double(it->second);
    if (v && *v > 0.0) return *v;
    throw Error("--" + name + " must be a finite number > 0, got " +
                it->second);
  } else {
    constexpr long long kMax = std::numeric_limits<T>::max();
    const auto v = parse_int(it->second);
    if (v && *v >= 1 && *v <= kMax) return static_cast<T>(*v);
    throw Error("--" + name + " must be an integer in [1, " +
                std::to_string(kMax) + "], got " + it->second);
  }
}

template index_t Cli::get_positive(const std::string&, index_t,
                                   const std::string&);
template double Cli::get_positive(const std::string&, double,
                                  const std::string&);

template <typename T>
std::vector<T> Cli::get_positive_list(const std::string& name,
                                      const std::vector<T>& def,
                                      const std::string& help) {
  static_assert(std::is_same_v<T, index_t>);
  std::string def_text;
  for (const T v : def) {
    if (!def_text.empty()) def_text += ',';
    def_text += std::to_string(v);
  }
  declare(name, def_text, help);
  const auto it = args_.find(name);
  if (it == args_.end()) return def;
  constexpr long long kMax = std::numeric_limits<T>::max();
  const std::string& text = it->second;
  std::vector<T> out;
  for (std::size_t start = 0;;) {
    const std::size_t comma = text.find(',', start);
    const auto v = parse_int(text.substr(start, comma - start));
    if (!v || *v < 1 || *v > kMax) {
      throw Error("--" + name +
                  " must be a comma-separated list of integers in [1, " +
                  std::to_string(kMax) + "], got " + text);
    }
    out.push_back(static_cast<T>(*v));
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

template std::vector<index_t> Cli::get_positive_list(
    const std::string&, const std::vector<index_t>&, const std::string&);

index_t scaled_extent(double full_extent, double scale) {
  const double extent = full_extent / scale;
  constexpr double kMax = std::numeric_limits<index_t>::max();
  if (!(extent >= 1.0 && extent <= kMax)) {
    std::ostringstream os;
    os << "--scale " << scale << " makes a dataset extent of " << extent
       << " (from " << full_extent << "); it must lie in [1, "
       << std::numeric_limits<index_t>::max() << "]";
    throw Error(os.str());
  }
  return static_cast<index_t>(extent);
}

void Cli::finish() const {
  for (const auto& [name, _] : args_) {
    FUSEDML_CHECK(declared_.count(name) > 0, "unknown flag: --" + name);
  }
}

std::string Cli::usage() const {
  std::string out = "usage: " + program_ + " [flags]\n";
  for (const auto& line : help_lines_) out += line + "\n";
  return out;
}

}  // namespace fusedml
