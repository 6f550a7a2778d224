// Lightweight Status / Result error handling in the RocksDB / Arrow idiom.
//
// Library code in ppdm does not throw exceptions (Google style). Fallible
// operations return a Status (or Result<T> when they also produce a value);
// programmer errors are caught by the PPDM_CHECK macros in check.h.

#ifndef PPDM_COMMON_STATUS_H_
#define PPDM_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace ppdm {

/// Error categories for ppdm operations.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   ///< Caller passed an argument violating the contract.
  kOutOfRange,        ///< Index / value outside the permitted domain.
  kFailedPrecondition,///< Object not in a state that allows the operation.
  kNotFound,          ///< A named entity (attribute, file, ...) is missing.
  kIoError,           ///< Underlying file / stream operation failed.
  kInternal,          ///< Invariant violation inside the library.
  kUnavailable,       ///< Transient failure; retrying may succeed.
  kResourceExhausted, ///< A bounded resource (queue, budget) is full.
  kDeadlineExceeded,  ///< The operation's deadline passed before it ran.
  kDataLoss,          ///< Written data may be torn or not durable.
};

/// Human-readable name of a status code (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// Result of a fallible operation: a code plus an explanatory message.
///
/// Usage:
///   Status s = dataset.WriteCsv(path);
///   if (!s.ok()) return s;   // propagate
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Named constructors, mirroring the RocksDB style.
  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  /// True iff the operation succeeded.
  bool ok() const { return code_ == StatusCode::kOk; }

  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "Ok" or "InvalidArgument: why it failed".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// A value-or-error sum type, analogous to arrow::Result / absl::StatusOr.
///
/// A Result is either a T (status().ok() is true) or an error Status. Access
/// to value() on an error Result is a checked fatal error.
template <typename T>
class Result {
 public:
  /// Constructs a Result holding a value (implicit, enables `return value;`).
  Result(T value) : rep_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs a Result holding an error (implicit, enables `return status;`).
  Result(Status status) : rep_(std::move(status)) {  // NOLINT(runtime/explicit)
    // A Result must never hold an OK status without a value; degrade to an
    // internal error so the bug is visible rather than silent.
    if (std::get<Status>(rep_).ok()) {
      rep_ = Status::Internal("Result constructed from OK status");
    }
  }

  /// True iff this Result holds a value.
  bool ok() const { return std::holds_alternative<T>(rep_); }

  /// The error status; Status::Ok() when a value is held.
  Status status() const {
    return ok() ? Status::Ok() : std::get<Status>(rep_);
  }

  /// The held value. Must only be called when ok().
  const T& value() const& { return std::get<T>(rep_); }
  T& value() & { return std::get<T>(rep_); }
  T&& value() && { return std::get<T>(std::move(rep_)); }

  /// The held value, or `fallback` when this Result is an error.
  T value_or(T fallback) const {
    return ok() ? std::get<T>(rep_) : std::move(fallback);
  }

 private:
  std::variant<T, Status> rep_;
};

}  // namespace ppdm

/// Propagates a non-OK Status out of the enclosing function:
///   PPDM_RETURN_IF_ERROR(dataset.WriteCsv(path));
/// replaces the hand-rolled `if (Status s = ...; !s.ok()) return s;`.
#define PPDM_RETURN_IF_ERROR(expr)                 \
  do {                                             \
    ::ppdm::Status _ppdm_status_ = (expr);         \
    if (!_ppdm_status_.ok()) return _ppdm_status_; \
  } while (false)

/// Unwraps a Result<T> into `lhs`, propagating the error Status out of the
/// enclosing function on failure:
///   PPDM_ASSIGN_OR_RETURN(const double value, ParseDouble(token));
/// `lhs` may declare a new variable or assign to an existing one.
#define PPDM_ASSIGN_OR_RETURN(lhs, rexpr) \
  PPDM_ASSIGN_OR_RETURN_IMPL_(            \
      PPDM_STATUS_CONCAT_(_ppdm_result_, __LINE__), lhs, rexpr)

#define PPDM_ASSIGN_OR_RETURN_IMPL_(result, lhs, rexpr) \
  auto result = (rexpr);                                \
  if (!result.ok()) return result.status();             \
  lhs = std::move(result).value()

#define PPDM_STATUS_CONCAT_(a, b) PPDM_STATUS_CONCAT_IMPL_(a, b)
#define PPDM_STATUS_CONCAT_IMPL_(a, b) a##b

#endif  // PPDM_COMMON_STATUS_H_
