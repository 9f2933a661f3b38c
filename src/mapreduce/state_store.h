#ifndef WAVEMR_MAPREDUCE_STATE_STORE_H_
#define WAVEMR_MAPREDUCE_STATE_STORE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "core/status.h"

namespace wavemr {

/// Persistent per-task state across MapReduce rounds -- the paper's trick of
/// writing an HDFS file named after the split id from the Mapper's Close
/// interface (Appendix A). Because Hadoop writes HDFS files locally first,
/// this costs local disk IO, not network; the job engine charges it to the
/// task accordingly.
///
/// Default mode keeps blobs in memory (fast, used by benchmarks); disk mode
/// (`StateStore(dir)`) round-trips real files, mirroring the deployment.
///
/// Thread-safe: concurrent map tasks save and load their per-split state
/// under one internal mutex (distinct splits use distinct keys, but the
/// bookkeeping maps are shared).
class StateStore {
 public:
  /// In-memory store.
  StateStore() = default;

  /// Disk-backed store rooted at `dir` (created if missing). Files are named
  /// by sanitized state keys.
  explicit StateStore(std::string dir);

  ~StateStore();

  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;

  /// Stores `blob` under `name`; the caller moves it in to avoid a copy.
  Status Put(const std::string& name, std::string blob);
  StatusOr<std::string> Get(const std::string& name) const;
  bool Contains(const std::string& name) const;
  Status Remove(const std::string& name);

  /// Total bytes currently stored (for reporting "state file" footprint).
  uint64_t TotalBytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_bytes_;
  }

  bool disk_backed() const { return !dir_.empty(); }

 private:
  std::string FilePath(const std::string& name) const;

  std::string dir_;  // empty => in-memory

  mutable std::mutex mu_;  // guards everything below
  std::map<std::string, std::string> blobs_;       // in-memory mode
  std::map<std::string, uint64_t> disk_sizes_;     // disk mode bookkeeping
  uint64_t total_bytes_ = 0;
};

}  // namespace wavemr

#endif  // WAVEMR_MAPREDUCE_STATE_STORE_H_
