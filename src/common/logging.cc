#include "common/logging.h"

#include <cstdio>
#include <cstdlib>

namespace shadoop {
namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

}  // namespace

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : enabled_(level >= LogLevel::kWarning),
      level_(level) {
  if (enabled_) {
    const char* base = file;
    for (const char* p = file; *p != '\0'; ++p) {
      if (*p == '/') base = p + 1;
    }
    stream_ << "[" << LevelName(level_) << " " << base << ":" << line << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    stream_ << "\n";
    std::fputs(stream_.str().c_str(), stderr);
  }
}

void DcheckFail(const char* expr, const char* file, int line) {
  std::fprintf(stderr, "SHADOOP_DCHECK failed at %s:%d: %s\n", file, line,
               expr);
  std::abort();
}

}  // namespace internal_logging
}  // namespace shadoop
