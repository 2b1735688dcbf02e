#ifndef SHADOOP_COMMON_LOGGING_H_
#define SHADOOP_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace shadoop {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

namespace internal_logging {

/// Stream-style log sink; flushes one line to stderr on destruction.
/// Messages below kWarning are dropped, so tests and benchmarks stay
/// quiet. Use via the SHADOOP_LOG macro, not directly.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    if (enabled_) stream_ << value;
    return *this;
  }

 private:
  bool enabled_;
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal_logging

#define SHADOOP_LOG(level)                                      \
  ::shadoop::internal_logging::LogMessage(                      \
      ::shadoop::LogLevel::k##level, __FILE__, __LINE__)

/// Hard invariant check: aborts with a message when `cond` is false.
/// Used for programmer errors only, never for data-dependent failures
/// (those return Status).
#define SHADOOP_DCHECK(cond)                                              \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::shadoop::internal_logging::DcheckFail(#cond, __FILE__, __LINE__); \
    }                                                                     \
  } while (false)

namespace internal_logging {
[[noreturn]] void DcheckFail(const char* expr, const char* file, int line);
}  // namespace internal_logging

}  // namespace shadoop

#endif  // SHADOOP_COMMON_LOGGING_H_
