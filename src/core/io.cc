#include "core/io.h"

namespace wavemr {

Status IoOptions::Validate() const {
  if (retry.max_attempts < 1) {
    return Status::InvalidArgument(
        "IoOptions.retry.max_attempts must be >= 1 (total tries, not "
        "retries); got " +
        std::to_string(retry.max_attempts));
  }
  if (retry.backoff_initial_us < 0) {
    return Status::InvalidArgument(
        "IoOptions.retry.backoff_initial_us must be >= 0; got " +
        std::to_string(retry.backoff_initial_us));
  }
  return Status::OK();
}

}  // namespace wavemr
