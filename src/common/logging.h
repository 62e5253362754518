#ifndef METACOMM_COMMON_LOGGING_H_
#define METACOMM_COMMON_LOGGING_H_

#include <atomic>
#include <functional>
#include <sstream>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace metacomm {

/// Severity levels for the MetaComm logger.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Returns a short name for `level` ("DEBUG", "INFO", ...).
const char* LogLevelName(LogLevel level);

/// Process-wide logging configuration. The default sink writes to
/// stderr; tests install a capturing sink, benchmarks raise the
/// threshold to avoid measuring I/O.
class Logger {
 public:
  using Sink = std::function<void(LogLevel, const std::string&)>;

  /// Returns the process-wide logger.
  static Logger& Get();

  /// Drops messages below `level`. Atomic: Log() reads the threshold
  /// on its fast path without taking the sink mutex.
  void set_min_level(LogLevel level) {
    min_level_.store(level, std::memory_order_relaxed);
  }
  LogLevel min_level() const {
    return min_level_.load(std::memory_order_relaxed);
  }

  /// Replaces the output sink. Passing nullptr restores stderr output.
  void set_sink(Sink sink) EXCLUDES(mutex_);

  /// Emits one message (already formatted) at `level`.
  void Log(LogLevel level, const std::string& message) EXCLUDES(mutex_);

 private:
  Logger();
  std::atomic<LogLevel> min_level_;
  // LOG() may run under any other lock in the system, so the sink
  // lock ranks innermost of all (kLogging).
  Mutex mutex_{LockRank::kLogging, "common.logging"};
  Sink sink_ GUARDED_BY(mutex_);
};

namespace internal_logging {

/// Stream-style message builder used by the METACOMM_LOG macro; emits on
/// destruction. The macro only builds one when the level passes the
/// logger's threshold.
class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage() { Logger::Get().Log(level_, stream_.str()); }

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Turns the streamed LogMessage into void so both arms of the
/// METACOMM_LOG conditional have one type. `&` binds looser than `<<`,
/// so it applies after the whole message is streamed.
struct Voidify {
  void operator&(const LogMessage&) const {}
};

}  // namespace internal_logging
}  // namespace metacomm

/// Usage: METACOMM_LOG(kInfo) << "applied " << n << " updates";
/// A message below the threshold costs one relaxed load: its operands
/// are never evaluated or formatted. The macro is one expression, so
/// it is safe as the body of an unbraced if/else.
#define METACOMM_LOG(level)                                         \
  (::metacomm::LogLevel::level <                                    \
   ::metacomm::Logger::Get().min_level())                           \
      ? (void)0                                                     \
      : ::metacomm::internal_logging::Voidify() &                   \
            ::metacomm::internal_logging::LogMessage(               \
                ::metacomm::LogLevel::level)

#endif  // METACOMM_COMMON_LOGGING_H_
