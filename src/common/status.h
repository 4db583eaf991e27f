#ifndef GROUPFORM_COMMON_STATUS_H_
#define GROUPFORM_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace groupform::common {

/// Canonical error space, modelled after absl::StatusCode. The library does
/// not throw exceptions across public API boundaries; fallible operations
/// return Status or StatusOr<T>.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kResourceExhausted,
  kUnimplemented,
  kInternal,
  kDataLoss,
  kUnavailable,
};

/// Human-readable name of a status code ("OK", "INVALID_ARGUMENT", ...).
const char* StatusCodeToString(StatusCode code);

/// A success-or-error result carrying a code and a message.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
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
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Either a value of type T or an error Status. Accessing the value of an
/// errored StatusOr is a programming error (asserts in debug builds).
template <typename T>
class StatusOr {
 public:
  /// Implicit from value: `return 42;` inside a StatusOr<int> function.
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from error status: `return Status::NotFound(...)`.
  StatusOr(Status status)  // NOLINT(runtime/explicit)
      : status_(std::move(status)) {
    assert(!status_.ok() && "StatusOr constructed from OK status");
    if (status_.ok()) {
      status_ = Status::Internal("StatusOr constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok() && "value() called on errored StatusOr");
    return *value_;
  }
  T& value() & {
    assert(ok() && "value() called on errored StatusOr");
    return *value_;
  }
  T&& value() && {
    assert(ok() && "value() called on errored StatusOr");
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` when errored.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace groupform::common

/// Evaluates `expr` (a Status); returns it from the enclosing function when
/// not OK.
#define GF_RETURN_IF_ERROR(expr)                  \
  do {                                            \
    ::groupform::common::Status _gf_st = (expr);  \
    if (!_gf_st.ok()) return _gf_st;              \
  } while (false)

/// Evaluates `expr` (a StatusOr<T>); assigns the value to `lhs` or returns
/// the error from the enclosing function.
#define GF_ASSIGN_OR_RETURN(lhs, expr)       \
  auto GF_CONCAT_(_gf_sor, __LINE__) = (expr);          \
  if (!GF_CONCAT_(_gf_sor, __LINE__).ok())              \
    return GF_CONCAT_(_gf_sor, __LINE__).status();      \
  lhs = std::move(GF_CONCAT_(_gf_sor, __LINE__)).value()

#define GF_CONCAT_INNER_(a, b) a##b
#define GF_CONCAT_(a, b) GF_CONCAT_INNER_(a, b)

#endif  // GROUPFORM_COMMON_STATUS_H_
