#include "histogram/algorithm.h"

#include <cmath>

#include "mapreduce/job.h"

namespace wavemr {

Status BuildOptions::Validate() const {
  // k == 0 is deliberately legal: it builds an empty synopsis (see the
  // edge-case tests); k is unsigned so there is no negative case to reject.
  if (!std::isfinite(epsilon) || epsilon <= 0.0) {
    return Status::InvalidArgument(
        "BuildOptions.epsilon must be a finite value > 0 (sampling rate is "
        "1/(epsilon^2 n)); got " + std::to_string(epsilon));
  }
  if (threads < 0) {
    return Status::InvalidArgument(
        "BuildOptions.threads must be >= 0 (0 = one per hardware thread); "
        "got " + std::to_string(threads));
  }
  if (reduce_tasks < 0) {
    return Status::InvalidArgument(
        "BuildOptions.reduce_tasks must be >= 0 (0 = match the map thread "
        "count); got " + std::to_string(reduce_tasks));
  }
  if (io.shuffle_buffer_bytes == 0) {
    return Status::InvalidArgument(
        "BuildOptions.io.shuffle_buffer_bytes must be > 0 (the shuffle needs "
        "at least one buffered run before spilling)");
  }
  WAVEMR_RETURN_IF_ERROR(io.Validate());
  return Status::OK();
}

void ConfigureMrEnv(const BuildOptions& options, MrEnv* env) {
  env->cluster = options.cluster;
  env->cost_model = options.cost_model;
  env->io = options.io;
  env->threads = options.threads;
  env->reduce_tasks = options.reduce_tasks;
  env->sorted_shuffle = options.force_sorted_shuffle;
}

}  // namespace wavemr
