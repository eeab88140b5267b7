#include "common/log.h"

#include <atomic>
#include <iostream>
#include <mutex>
#include <stdexcept>

namespace fusedml {

namespace {
std::mutex g_mutex;

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
  }
  return "?????";
}
}  // namespace

void set_log_level(LogLevel level) { detail::g_log_level.store(level); }
LogLevel log_level() { return detail::g_log_level.load(); }

LogLevel parse_log_level(const std::string& name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  throw std::invalid_argument("unknown log level: '" + name +
                              "' (expected debug|info|warn|error)");
}

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "?";
}

void log_message(LogLevel level, const std::string& message) {
  if (!log_enabled(level)) return;
  std::lock_guard<std::mutex> lock(g_mutex);
  std::cerr << "[" << level_tag(level) << "] " << message << "\n";
}

}  // namespace fusedml
