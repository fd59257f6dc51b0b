#include "common/logging.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/clock.hpp"

namespace adets::common {

namespace {

LogLevel parse_level(const char* text) {
  if (text == nullptr) return LogLevel::kWarn;
  if (std::strcmp(text, "error") == 0) return LogLevel::kError;
  if (std::strcmp(text, "warn") == 0) return LogLevel::kWarn;
  if (std::strcmp(text, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(text, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(text, "trace") == 0) return LogLevel::kTrace;
  return LogLevel::kWarn;
}

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kError: return "ERROR";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kTrace: return "TRACE";
  }
  return "?????";
}

}  // namespace

LogLevel log_level() {
  // NOLINT below: read once, under the static-local init guard, and the
  // library never calls setenv.
  static const LogLevel level =
      parse_level(std::getenv("ADETS_LOG"));  // NOLINT(concurrency-mt-unsafe)
  return level;
}

void log_line(LogLevel level, const std::string& component, const std::string& message) {
  static std::mutex io_mutex;
  const auto now = Clock::now().time_since_epoch();
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(now).count();
  const std::lock_guard<std::mutex> guard(io_mutex);
  std::fprintf(stderr, "[%12lld] %s [%s] %s\n", static_cast<long long>(us),
               level_name(level), component.c_str(), message.c_str());
}

}  // namespace adets::common
