#ifndef WAVEMR_CORE_IO_H_
#define WAVEMR_CORE_IO_H_

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>

#include "core/status.h"

namespace wavemr {

/// Spill I/O vocabulary shared by every spill read and write
/// (mapreduce/spill.h): one typed error, one transient-errno retry table,
/// and the knobs BuildOptions -> MrEnv -> ShufflePlane carry.

// ---------------------------------------------------------------------------
// IoResult: the typed outcome of one I/O operation.
// ---------------------------------------------------------------------------

/// Typed outcome of one spill I/O operation. `op` says which syscall family
/// failed (kNone = success); `err` carries errno when the OS produced one
/// (0 for pure format/checksum violations). Every spill read and write
/// reports through it -- there is exactly one error-classification table.
struct IoResult {
  enum class Op {
    kNone = 0,  // success
    kOpen,
    kRead,
    kWrite,
    kClose,
    kChecksum,  // stored CRC32C does not match the bytes read
    kFormat,    // truncated file / bad magic / header mismatch
  };

  Op op = Op::kNone;
  int err = 0;
  std::string detail;

  bool ok() const { return op == Op::kNone; }

  static const char* OpName(Op op) {
    switch (op) {
      case Op::kNone: return "ok";
      case Op::kOpen: return "open";
      case Op::kRead: return "read";
      case Op::kWrite: return "write";
      case Op::kClose: return "close";
      case Op::kChecksum: return "checksum";
      case Op::kFormat: return "format";
    }
    return "unknown";
  }

  std::string ToString() const {
    if (ok()) return "ok";
    std::string out = "spill ";
    out += OpName(op);
    out += " error";
    if (err != 0) {
      out += " (";
      out += std::strerror(err);
      out += ")";
    }
    if (!detail.empty()) {
      out += ": ";
      out += detail;
    }
    return out;
  }

  Status ToStatus() const {
    return ok() ? Status::OK() : Status::IOError(ToString());
  }
};

// ---------------------------------------------------------------------------
// IoRetryPolicy: one transient-errno table for every path.
// ---------------------------------------------------------------------------

/// Retry budget for transient I/O errno. An attempt that fails with a
/// transient code is retried after an exponentially growing backoff, up to
/// max_attempts total tries; everything else (and exhaustion) surfaces the
/// typed error to the caller.
struct IoRetryPolicy {
  int max_attempts = 4;
  int backoff_initial_us = 100;  // doubles per retry: 100, 200, 400, ...

  /// ENOSPC counts as transient on the write path: spills race with other
  /// tenants of the temp volume and space can free up between attempts.
  /// (If it does not, exhaustion lands in the resident-run fallback.)
  static bool IsTransient(int err) {
    return err == EINTR || err == EAGAIN || err == ENOSPC || err == ENOBUFS;
  }

  void BackoffSleep(int attempt) const {
    const int64_t us = static_cast<int64_t>(backoff_initial_us) << attempt;
    if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
};

// ---------------------------------------------------------------------------
// IoOptions: the spill I/O knobs.
// ---------------------------------------------------------------------------

/// Every knob of the spill I/O plane in one struct, plumbed BuildOptions ->
/// MrEnv -> ShufflePlane/FileRunCursor.
struct IoOptions {
  /// Retained-run budget before a sorted shuffle spills to disk (Hadoop's
  /// io.sort.mb analog, applied to the whole round). BuildOptions::Validate
  /// rejects 0; a bare MrEnv with 0 never spills (SpillPolicy).
  uint64_t shuffle_buffer_bytes = uint64_t{256} << 20;

  /// Transient-errno retry budget shared by every spill read and write.
  IoRetryPolicy retry;

  /// Checks every knob and returns an actionable InvalidArgument for the
  /// first bad one (same contract as BuildOptions::Validate, which calls
  /// this).
  Status Validate() const;
};

}  // namespace wavemr

#endif  // WAVEMR_CORE_IO_H_
