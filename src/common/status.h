#ifndef SHADOOP_COMMON_STATUS_H_
#define SHADOOP_COMMON_STATUS_H_

#include <memory>
#include <string>
#include <utility>

namespace shadoop {

/// Error categories used across the library. The set intentionally mirrors
/// the failure modes of a distributed spatial system: user errors
/// (kInvalidArgument, kParseError), environment errors (kIoError,
/// kNotFound, kAlreadyExists), capacity errors (kResourceExhausted) and
/// internal invariant violations (kInternal).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kIoError = 4,
  kParseError = 5,
  kResourceExhausted = 6,
  kUnimplemented = 7,
  kInternal = 8,
};

/// Returns a stable human-readable name for a status code.
const char* StatusCodeName(StatusCode code);

/// Operation outcome carried across every fallible API boundary in the
/// library. Exceptions are never thrown across public interfaces; functions
/// that can fail return `Status` (or `Result<T>`, see result.h).
///
/// The OK state is represented by a null payload so that success paths cost
/// a single pointer check and no allocation.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : state_(code == StatusCode::kOk
                   ? nullptr
                   : std::make_unique<State>(State{code, std::move(message)})) {}

  Status(const Status& other)
      : state_(other.state_ ? std::make_unique<State>(*other.state_) : nullptr) {}
  Status& operator=(const Status& other) {
    if (this != &other) {
      state_ = other.state_ ? std::make_unique<State>(*other.state_) : nullptr;
    }
    return *this;
  }
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return state_ == nullptr; }
  StatusCode code() const { return state_ ? state_->code : StatusCode::kOk; }
  const std::string& message() const {
    static const std::string kEmpty;
    return state_ ? state_->message : kEmpty;
  }

  bool IsInvalidArgument() const { return code() == StatusCode::kInvalidArgument; }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code() == StatusCode::kAlreadyExists; }
  bool IsIoError() const { return code() == StatusCode::kIoError; }
  bool IsParseError() const { return code() == StatusCode::kParseError; }
  bool IsResourceExhausted() const {
    return code() == StatusCode::kResourceExhausted;
  }
  bool IsUnimplemented() const { return code() == StatusCode::kUnimplemented; }
  bool IsInternal() const { return code() == StatusCode::kInternal; }

  /// Formats as "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  struct State {
    StatusCode code;
    std::string message;
  };
  std::unique_ptr<State> state_;  // null == OK
};

/// Propagates a non-OK status to the caller.
#define SHADOOP_RETURN_NOT_OK(expr)          \
  do {                                       \
    ::shadoop::Status _st = (expr);          \
    if (!_st.ok()) return _st;               \
  } while (false)

/// Aborts the process if `expr` is not OK. Reserved for invariants whose
/// violation leaves no sane recovery (e.g., corrupt in-memory state).
#define SHADOOP_CHECK_OK(expr)                                   \
  do {                                                           \
    ::shadoop::Status _st = (expr);                              \
    if (!_st.ok()) ::shadoop::internal_status::AbortWith(_st);   \
  } while (false)

namespace internal_status {
[[noreturn]] void AbortWith(const Status& status);
}  // namespace internal_status

}  // namespace shadoop

#endif  // SHADOOP_COMMON_STATUS_H_
