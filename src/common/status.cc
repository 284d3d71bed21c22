#include "common/status.h"

namespace vitri {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "Ok";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kNotSupported:
      return "NotSupported";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "Ok";
  std::string out(StatusCodeName(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace vitri
