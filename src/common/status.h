#ifndef VITRI_COMMON_STATUS_H_
#define VITRI_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace vitri {

/// Error categories used across the library. Modeled after the
/// RocksDB/Arrow convention: library code reports failures through
/// Status/Result instead of exceptions.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kIoError = 3,
  kCorruption = 4,
  kOutOfRange = 5,
  kNotSupported = 6,
  kInternal = 7,
  kResourceExhausted = 8,
  kDeadlineExceeded = 9,
};

/// Returns a human-readable name for a status code ("Ok", "IoError", ...).
std::string_view StatusCodeName(StatusCode code);

/// A lightweight success-or-error value. Cheap to copy in the OK case
/// (no allocation); error states carry a message. [[nodiscard]]: a
/// dropped Status is a swallowed error, so ignoring one is a compile
/// error under -Werror; truly fire-and-forget calls must spell out
/// `(void)expr`.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  /// Factory helpers, one per code.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "Ok" or "<CodeName>: <message>".
  std::string ToString() const;

  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsIoError() const { return code_ == StatusCode::kIoError; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsNotSupported() const { return code_ == StatusCode::kNotSupported; }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// Evaluates `expr` (a Status expression) and early-returns it on error.
#define VITRI_RETURN_IF_ERROR(expr)               \
  do {                                            \
    ::vitri::Status _vitri_status = (expr);       \
    if (!_vitri_status.ok()) return _vitri_status; \
  } while (false)

}  // namespace vitri

#endif  // VITRI_COMMON_STATUS_H_
