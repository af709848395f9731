// Lightweight Status / StatusOr error-handling primitives (exception-free).
//
// EcoDB follows the Google style of returning explicit status objects rather
// than throwing. `Status` carries an error code and a message; `StatusOr<T>`
// carries either a value or a non-OK status.

#ifndef ECODB_UTIL_STATUS_H_
#define ECODB_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace ecodb {

/// Error categories used across the engine.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kFailedPrecondition,
  kResourceExhausted,
  kInternal,
  kUnimplemented,
  kDataLoss,
  kUnavailable,
  kDeadlineExceeded,
};

/// Returns a stable human-readable name for `code` (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// A success-or-error result. Cheap to copy on the OK path (no allocation).
/// [[nodiscard]]: an ignored Status silently swallows an I/O or fault error,
/// so every producer must be checked (or explicitly voided at the call site).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

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
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type `T` or an error `Status`. Dereferencing a non-OK
/// StatusOr is a programming error (asserts in debug builds).
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Implicit construction from a value or from an error status keeps call
  /// sites terse: `return value;` / `return Status::NotFound(...)`.
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "OK status requires a value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace ecodb

/// Propagates a non-OK status to the caller.
#define ECODB_RETURN_IF_ERROR(expr)                \
  do {                                             \
    ::ecodb::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                     \
  } while (0)

/// Evaluates `rexpr` (a StatusOr), propagating errors, else binds the value.
#define ECODB_ASSIGN_OR_RETURN(lhs, rexpr)         \
  ECODB_ASSIGN_OR_RETURN_IMPL_(                    \
      ECODB_STATUS_CONCAT_(_status_or_, __LINE__), lhs, rexpr)

#define ECODB_ASSIGN_OR_RETURN_IMPL_(var, lhs, rexpr) \
  auto var = (rexpr);                                 \
  if (!var.ok()) return var.status();                 \
  lhs = std::move(var).value()

#define ECODB_STATUS_CONCAT_(a, b) ECODB_STATUS_CONCAT_IMPL_(a, b)
#define ECODB_STATUS_CONCAT_IMPL_(a, b) a##b

#endif  // ECODB_UTIL_STATUS_H_
