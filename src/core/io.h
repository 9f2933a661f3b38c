#ifndef WAVEMR_CORE_IO_H_
#define WAVEMR_CORE_IO_H_

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/status.h"

namespace wavemr {

/// Asynchronous I/O data plane.
///
/// Everything that moves spill bytes between memory and disk goes through
/// one pluggable seam, IoBackend, so the engine has exactly two data paths
/// that share one typed error table:
///
///   - SyncIoBackend: the reference. Submit() runs the job inline on the
///     calling thread; behavior is byte-for-byte the pre-async engine.
///   - AsyncIoBackend: a submission queue drained by dedicated I/O worker
///     threads. The shuffle plane overlaps spill serialization with map
///     absorption, and FileRunCursor prefetches its next checksum block
///     while the loser-tree merge drains the current one.
///
/// The async engine is the portable worker-thread implementation: read jobs
/// use positional pread (thread-safe on a shared fd), write jobs stream with
/// buffered stdio. The seam deliberately admits kernel submission engines --
/// an io_uring backend slots in behind the same Submit() contract when
/// <liburing.h> is available at build time (it is not baked into the CI
/// image, and glibc's POSIX AIO is itself a hidden worker-thread pool, so
/// the explicit pool is the honest default).
///
/// Contract every backend must keep (docs/async-io.md):
///   - Jobs never throw; failures travel as IoResult values in job state.
///   - Submit() returns a waitable IoTicket; Wait() is the only completion
///     point. Callers own job lifetime: a job's captured state must outlive
///     its ticket's Wait().
///   - Results are bit-identical across backends for every workload: the
///     async plane changes only *when* bytes move, never what they contain
///     or the order consumers observe them in.

// ---------------------------------------------------------------------------
// IoResult: the typed outcome of one I/O operation.
// ---------------------------------------------------------------------------

/// Typed outcome of one spill I/O operation. `op` says which syscall family
/// failed (kNone = success); `err` carries errno when the OS produced one
/// (0 for pure format/checksum violations). Shared by the sync and async
/// paths -- there is exactly one error-classification table.
struct IoResult {
  enum class Op {
    kNone = 0,  // success
    kOpen,
    kSeek,
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
      case Op::kSeek: return "seek";
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
// IoOptions: the consolidated I/O knobs.
// ---------------------------------------------------------------------------

/// Which I/O engine the spill data plane runs on.
enum class IoBackendKind {
  kSync,   // inline reference path (no overlap)
  kAsync,  // submission queue + I/O workers (overlapped writes, prefetch)
  kAuto,   // best engine available on this build (currently kAsync)
};

const char* IoBackendKindName(IoBackendKind kind);

/// Parses "sync" | "async" | "auto" (the --spill-io flag values).
StatusOr<IoBackendKind> ParseIoBackendKind(const std::string& name);

/// Every knob of the spill I/O plane in one struct, plumbed BuildOptions ->
/// MrEnv -> ShufflePlane/FileRunCursor. Consolidates what used to be spread
/// over CostModel::shuffle_buffer_bytes (still honored as the deprecated
/// spelling) and the per-call spill retry-policy arguments.
struct IoOptions {
  /// Engine selection (--spill-io). kAuto resolves via ResolvedBackend().
  IoBackendKind backend = IoBackendKind::kAuto;

  /// Retained-run budget before a sorted shuffle spills to disk. 0 = inherit
  /// the deprecated CostModel::shuffle_buffer_bytes (which still defaults to
  /// 256 MiB); nonzero here wins over the CostModel field.
  uint64_t shuffle_buffer_bytes = 0;

  /// Maximum spill writes in flight on the async backend (--io-queue-depth).
  /// Bounds the run columns pinned in memory awaiting serialization; the
  /// submitter blocks on the oldest write once the queue is full.
  int queue_depth = 4;

  /// Checksum blocks each file cursor reads ahead of the merge
  /// (--io-prefetch-depth). 0 disables prefetch even on the async backend
  /// (reads happen inline, exactly the sync path). 1 = double buffering.
  int prefetch_depth = 1;

  /// Transient-errno retry budget shared by every spill read and write.
  IoRetryPolicy retry;

  /// Checks every knob and returns an actionable InvalidArgument for the
  /// first bad one (same contract as BuildOptions::Validate, which calls
  /// this).
  Status Validate() const;

  /// kAuto resolved to a concrete engine: the overlapped worker-thread
  /// backend. (Overlap pays even on one CPU -- the driver computes while the
  /// kernel moves bytes -- and bit-identity makes the choice invisible.)
  IoBackendKind ResolvedBackend() const {
    return backend == IoBackendKind::kAuto ? IoBackendKind::kAsync : backend;
  }
};

// ---------------------------------------------------------------------------
// IoBufferArena: recycling block-buffer pool.
// ---------------------------------------------------------------------------

class IoBufferArena;

/// RAII lease on one arena buffer. Destruction (or Release) returns the
/// storage to the arena's freelist for the next Acquire; holding the IoBuffer
/// is what keeps the bytes valid -- never retain a raw data() pointer past
/// the lease (the ASan lanes run the arena tests to catch exactly that).
class IoBuffer {
 public:
  IoBuffer() = default;
  IoBuffer(IoBuffer&& other) noexcept { *this = std::move(other); }
  IoBuffer& operator=(IoBuffer&& other) noexcept {
    if (this != &other) {
      Release();
      arena_ = other.arena_;
      data_ = std::move(other.data_);
      capacity_ = other.capacity_;
      other.arena_ = nullptr;
      other.capacity_ = 0;
    }
    return *this;
  }
  IoBuffer(const IoBuffer&) = delete;
  IoBuffer& operator=(const IoBuffer&) = delete;
  ~IoBuffer() { Release(); }

  std::byte* data() { return data_.get(); }
  const std::byte* data() const { return data_.get(); }
  size_t capacity() const { return capacity_; }
  explicit operator bool() const { return data_ != nullptr; }

  /// Returns the storage to the arena now (idempotent).
  void Release();

 private:
  friend class IoBufferArena;
  IoBuffer(IoBufferArena* arena, std::unique_ptr<std::byte[]> data,
           size_t capacity)
      : arena_(arena), data_(std::move(data)), capacity_(capacity) {}

  IoBufferArena* arena_ = nullptr;
  std::unique_ptr<std::byte[]> data_;
  size_t capacity_ = 0;
};

/// Thread-safe recycling pool for I/O staging buffers. Acquire hands out the
/// smallest free buffer that fits (best fit) or allocates a fresh one;
/// releasing recycles the storage instead of freeing it, so a merge over R
/// file cursors reuses a few block-sized allocations for the whole round
/// instead of mallocing per refill. The freelist is bounded; releases past
/// the bound free their storage.
class IoBufferArena {
 public:
  /// Freelist bound: enough for every cursor of a wide merge to park its
  /// slots between rounds without holding unbounded memory.
  static constexpr size_t kMaxFreeBuffers = 64;

  IoBufferArena() = default;
  IoBufferArena(const IoBufferArena&) = delete;
  IoBufferArena& operator=(const IoBufferArena&) = delete;

  /// A buffer with capacity >= min_bytes (recycled when one fits).
  IoBuffer Acquire(size_t min_bytes);

  /// Lifetime telemetry (tests assert reuse actually happens).
  uint64_t allocations() const {
    return allocations_.load(std::memory_order_relaxed);
  }
  uint64_t reuses() const { return reuses_.load(std::memory_order_relaxed); }

 private:
  friend class IoBuffer;
  void Recycle(std::unique_ptr<std::byte[]> data, size_t capacity);

  std::mutex mu_;
  /// (capacity, storage), kept sorted by capacity for best-fit Acquire.
  std::vector<std::pair<size_t, std::unique_ptr<std::byte[]>>> free_;
  std::atomic<uint64_t> allocations_{0};
  std::atomic<uint64_t> reuses_{0};
};

// ---------------------------------------------------------------------------
// IoBackend: the pluggable engine.
// ---------------------------------------------------------------------------

/// Waitable handle for one submitted job. Wait() blocks until the job body
/// finished (immediately satisfied on the sync backend); a default-
/// constructed ticket is not valid.
class IoTicket {
 public:
  IoTicket() = default;
  explicit IoTicket(std::future<void> done) : done_(std::move(done)) {}

  bool valid() const { return done_.valid(); }
  void Wait() {
    if (done_.valid()) done_.get();
  }

 private:
  std::future<void> done_;
};

/// The pluggable I/O engine. One instance is shared by a whole MrEnv (all
/// rounds, all planes, all cursors); implementations are thread-safe.
class IoBackend {
 public:
  virtual ~IoBackend() = default;

  virtual const char* name() const = 0;

  /// True when Submit actually overlaps: jobs run on I/O workers and the
  /// caller continues. False = the sync reference (jobs ran inline before
  /// Submit returned; consumers skip their overlap machinery entirely).
  virtual bool async() const = 0;

  /// Schedules `job`. Jobs must not throw: failures are recorded in the
  /// job's own captured state as IoResult values and surfaced by the
  /// consumer at its deterministic observation point.
  virtual IoTicket Submit(std::function<void()> job) = 0;

  /// The options this backend was built with (queue/prefetch depth, retry).
  const IoOptions& options() const { return options_; }

  /// Shared staging-buffer pool for this backend's consumers.
  IoBufferArena& arena() { return arena_; }

 protected:
  explicit IoBackend(IoOptions options) : options_(std::move(options)) {}

 private:
  IoOptions options_;
  IoBufferArena arena_;
};

/// Reference backend: Submit runs the job inline. Zero threads, zero
/// reordering -- byte-for-byte the pre-async engine, kept selectable forever
/// as the bit-identity baseline (--spill-io=sync).
class SyncIoBackend : public IoBackend {
 public:
  explicit SyncIoBackend(IoOptions options = IoOptions());
  const char* name() const override { return "sync"; }
  bool async() const override { return false; }
  IoTicket Submit(std::function<void()> job) override;
};

/// Overlapped backend: a bounded submission queue drained by dedicated I/O
/// worker threads (one per queue_depth slot, clamped). Jobs run in
/// submission order per worker but complete in any order; consumers
/// serialize on their tickets.
class AsyncIoBackend : public IoBackend {
 public:
  explicit AsyncIoBackend(IoOptions options = IoOptions());
  ~AsyncIoBackend() override;
  const char* name() const override { return "async"; }
  bool async() const override { return true; }
  IoTicket Submit(std::function<void()> job) override;

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::function<void()>> queue_;  // guarded by mu_
  size_t queue_head_ = 0;                     // guarded by mu_
  bool stop_ = false;                         // guarded by mu_
  std::vector<std::thread> workers_;
};

/// Builds the backend `options.ResolvedBackend()` names.
std::unique_ptr<IoBackend> MakeIoBackend(const IoOptions& options);

/// Process-wide sync backend used when a caller passes no backend (planes
/// and cursors constructed by tests/benches keep their old signatures).
IoBackend* DefaultSyncIoBackend();

}  // namespace wavemr

#endif  // WAVEMR_CORE_IO_H_
