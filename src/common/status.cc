#include "common/status.h"

#include <cstdio>
#include <cstdlib>

namespace shadoop {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string result = StatusCodeName(code());
  result += ": ";
  result += message();
  return result;
}

namespace internal_status {

void AbortWith(const Status& status) {
  std::fprintf(stderr, "SHADOOP_CHECK_OK failed: %s\n",
               status.ToString().c_str());
  std::abort();
}

}  // namespace internal_status
}  // namespace shadoop
