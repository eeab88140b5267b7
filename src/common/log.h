// Leveled stderr logging. Off-by-default debug level keeps bench output clean.
#pragma once

#include <atomic>
#include <sstream>
#include <string>

namespace fusedml {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

namespace detail {
inline std::atomic<LogLevel> g_log_level{LogLevel::kInfo};
}  // namespace detail

/// Global threshold; messages below it are dropped. Default: kInfo.
void set_log_level(LogLevel level);
LogLevel log_level();

/// True when messages at `level` are written under the current threshold.
inline bool log_enabled(LogLevel level) {
  return static_cast<int>(level) >=
         static_cast<int>(detail::g_log_level.load());
}

/// "debug" / "info" / "warn" / "error" (case-sensitive); throws
/// std::invalid_argument on anything else — used by the --log-level flag.
LogLevel parse_log_level(const std::string& name);
const char* to_string(LogLevel level);

/// Emit one line to stderr with a level tag (thread-safe).
void log_message(LogLevel level, const std::string& message);

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_message(level_, os_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    os_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};

/// Turns a streamed LogLine into a void expression so the macro below can
/// sit in the false arm of a conditional (`&` binds looser than `<<`).
struct LogVoidify {
  void operator&(LogLine&) {}
};
}  // namespace detail

}  // namespace fusedml

// A disabled level builds no LogLine and evaluates none of the streamed
// operands, so a debug line on a hot path costs one atomic load.
#define FUSEDML_LOG_AT(level)                          \
  !::fusedml::log_enabled(level)                       \
      ? (void)0                                        \
      : ::fusedml::detail::LogVoidify() &              \
            ::fusedml::detail::LogLine(level)
#define FUSEDML_LOG_DEBUG FUSEDML_LOG_AT(::fusedml::LogLevel::kDebug)
#define FUSEDML_LOG_INFO FUSEDML_LOG_AT(::fusedml::LogLevel::kInfo)
#define FUSEDML_LOG_WARN FUSEDML_LOG_AT(::fusedml::LogLevel::kWarn)
#define FUSEDML_LOG_ERROR FUSEDML_LOG_AT(::fusedml::LogLevel::kError)
