#ifndef YVER_UTIL_STATUS_H_
#define YVER_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "util/check.h"

namespace yver::util {

/// Error category of a Status. Mirrors the small subset of canonical codes
/// the serving layer needs; extend as new failure modes appear.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,    // malformed query (NaN certainty, bad granularity)
  kNotFound,           // record / file does not exist
  kOutOfRange,         // record index beyond the indexed corpus
  kDataLoss,           // corrupt or truncated index file
  kInternal,           // invariant violation that was recoverable
  kDeadlineExceeded,   // the caller's deadline expired before the answer
  kResourceExhausted,  // load shed: a rate limit or a full ingest queue
  kUnavailable,        // transient I/O failure; retrying may succeed
};

/// Human-readable name of a StatusCode ("OK", "INVALID_ARGUMENT", ...).
const char* StatusCodeName(StatusCode code);

/// A cheap, copyable success-or-error value: the typed error channel shared
/// by serve::ResolutionService, the CLI, and tests (no exceptions, no
/// errno-style out parameters).
class Status {
 public:
  /// Default is success.
  Status() = default;
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
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "INVALID_ARGUMENT: certainty is NaN".
  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(StatusCodeName(code_)) + ": " + message_;
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;  // messages are advisory
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// A Status or a value of type T. `ok()` implies `value()` is present;
/// accessing the value of a failed StatusOr aborts (programmer error, in
/// line with YVER_CHECK semantics).
template <typename T>
class StatusOr {
 public:
  /// Implicit from a value: `return result;`.
  StatusOr(T value) : value_(std::move(value)) {}
  /// Implicit from an error status: `return Status::NotFound(...)`.
  StatusOr(Status status) : status_(std::move(status)) {
    YVER_CHECK_MSG(!status_.ok(), "StatusOr constructed from OK status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    YVER_CHECK_MSG(ok(), status_.ToString().c_str());
    return *value_;
  }
  T& value() & {
    YVER_CHECK_MSG(ok(), status_.ToString().c_str());
    return *value_;
  }
  T&& value() && {
    YVER_CHECK_MSG(ok(), status_.ToString().c_str());
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace yver::util

#endif  // YVER_UTIL_STATUS_H_
