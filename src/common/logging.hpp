// Minimal leveled logger.
//
// Logging inside a deterministic scheduler must never perturb scheduling
// decisions, so the logger only formats when the level is enabled and
// serialises output with a single global mutex.  Level comes from the
// ADETS_LOG environment variable (error|warn|info|debug|trace) and
// defaults to warn.
#pragma once

#include <sstream>
#include <string>

namespace adets::common {

enum class LogLevel : int { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3, kTrace = 4 };

/// Returns the process-wide log level.
LogLevel log_level();

/// True when `level` messages should be emitted.
inline bool log_enabled(LogLevel level) {
  return static_cast<int>(level) <= static_cast<int>(log_level());
}

/// Writes one formatted line (thread-safe); used via the LOG macros below.
void log_line(LogLevel level, const std::string& component, const std::string& message);

}  // namespace adets::common

// Streaming log macros: ADETS_LOG_INFO("gcs") << "view " << view_id;
#define ADETS_LOG_AT(level, component)                                     \
  for (bool adets_log_once = ::adets::common::log_enabled(level);          \
       adets_log_once; adets_log_once = false)                             \
  ::adets::common::LogCapture(level, component)

#define ADETS_LOG_ERROR(component) ADETS_LOG_AT(::adets::common::LogLevel::kError, component)
#define ADETS_LOG_WARN(component) ADETS_LOG_AT(::adets::common::LogLevel::kWarn, component)
#define ADETS_LOG_INFO(component) ADETS_LOG_AT(::adets::common::LogLevel::kInfo, component)
#define ADETS_LOG_DEBUG(component) ADETS_LOG_AT(::adets::common::LogLevel::kDebug, component)
#define ADETS_LOG_TRACE(component) ADETS_LOG_AT(::adets::common::LogLevel::kTrace, component)

namespace adets::common {

/// Helper that accumulates one log line and flushes it on destruction.
class LogCapture {
 public:
  LogCapture(LogLevel level, std::string component)
      : level_(level), component_(std::move(component)) {}
  LogCapture(const LogCapture&) = delete;
  LogCapture& operator=(const LogCapture&) = delete;
  ~LogCapture() { log_line(level_, component_, stream_.str()); }

  template <typename T>
  LogCapture& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream stream_;
};

}  // namespace adets::common
