#ifndef WAVEMR_MAPREDUCE_SPILL_H_
#define WAVEMR_MAPREDUCE_SPILL_H_

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/crc32c.h"
#include "core/failpoint.h"
#include "core/io.h"
#include "core/logging.h"
#include "core/status.h"

namespace wavemr {

/// External shuffle spill files.
///
/// When a sorted round's retained map-output runs outgrow
/// IoOptions::shuffle_buffer_bytes, the ShufflePlane serializes whole runs
/// to temp files in the columnar framing below and frees their memory; the
/// loser-tree merge then streams them back through FileRunCursor, so the
/// merged output is bit-identical to the all-in-memory path (same keys, same
/// run-ordinal tie-breaks, same within-run order). This is Hadoop's
/// map-output spill/merge pipeline made literal: sorted on-disk runs,
/// file-backed cursors, k-way merge.
///
/// File framing (host-endian; spill files never outlive the process):
///
///   [u64 magic][u64 n][u32 sizeof(K)][u32 sizeof(V)]   24-byte header
///   [K keys:   n * sizeof(K)]                          key block
///   [V values: n * sizeof(V)]                          value block
///   [u32 key_crc   * nblocks]                          CRC32C per 4096-pair
///   [u32 value_crc * nblocks]                          column block
///   [u32 footer_crc]                                   CRC32C of the two
///                                                      CRC arrays
///
/// with nblocks = ceil(n / kSpillIndexBlockPairs). The key and value blocks
/// stay columnar -- a cursor's refill reads a block of keys and a block of
/// values with two contiguous preads, and the on-disk lower-bound search for
/// reduce partitioning touches only the key block. Every read path verifies
/// the block checksums, so a torn or bit-flipped spill file is detected
/// (SpillIoError) instead of silently corrupting the merge.
///
/// IO failure contract: writes return typed IoResults (the shuffle plane
/// degrades to keeping the run resident -- see ShufflePlane); reads throw
/// SpillIoError, which the job engine's existing exception path turns into a
/// clean abort with spill files removed. Transient errno (EINTR/EAGAIN, and
/// ENOSPC on writes) is retried with exponential backoff per
/// IoOptions::retry (IoRetryPolicy, core/io.h) before either outcome. Writes
/// run on the driver thread that decides them; block reads run on the merge
/// thread that consumes them. Fault injection hooks: failpoint sites
/// `spill.write.{open,write,close}` and `spill.read.{open,read}`
/// (core/failpoint.h, catalog in docs/robustness.md).

inline constexpr uint64_t kSpillMagic = 0x57564d5250494c32ull;  // "WVMRPIL2"
inline constexpr uint64_t kSpillHeaderBytes = 24;

/// Sparse key-index and checksum granularity: one sampled key and one CRC32C
/// per column per this many pairs. Kept equal to FileRunCursor's refill
/// block so an index hit brackets exactly one cursor block and a refill
/// verifies exactly one checksum. 4096 * 8 bytes of samples per 4096 *
/// 16-byte block = 0.05% memory overhead on the spilled payload.
inline constexpr uint64_t kSpillIndexBlockPairs = 4096;

/// Checksummed blocks in a file of `num_pairs` pairs.
inline uint64_t SpillNumBlocks(uint64_t num_pairs) {
  return (num_pairs + kSpillIndexBlockPairs - 1) / kSpillIndexBlockPairs;
}

/// Total on-disk size of a spill file holding `num_pairs` K/V pairs.
template <typename K, typename V>
uint64_t SpillFileBytes(uint64_t num_pairs) {
  return kSpillHeaderBytes + num_pairs * (sizeof(K) + sizeof(V)) +
         (2 * SpillNumBlocks(num_pairs) + 1) * sizeof(uint32_t);
}

/// Thrown by the spill read paths (cursors, probes) on IO failure or
/// detected corruption. The job engine already unwinds exceptions cleanly
/// (spill files are deleted by ShufflePlane/SpillDir RAII), so a bad disk
/// aborts the build with a typed, actionable error instead of wrong results.
/// Wraps the core IoResult (core/io.h).
class SpillIoError : public std::runtime_error {
 public:
  explicit SpillIoError(IoResult io)
      : std::runtime_error(io.ToString()), io_(std::move(io)) {}
  const IoResult& io() const { return io_; }

 private:
  IoResult io_;
};

template <typename K>
class SpillKeyProbe;

/// Metadata the plane keeps per spilled run: enough to merge and partition
/// it without re-reading the header.
struct SpillFileInfo {
  std::filesystem::path path;
  uint64_t num_pairs = 0;
  uint64_t min_key = 0;  // keys.front() at spill time (0 when empty)
  uint64_t max_key = 0;  // keys.back() at spill time
  uint64_t file_bytes = 0;
  /// keys[b * kSpillIndexBlockPairs] for each block b, recorded at spill
  /// time. Lets rank and partition probes bracket any lower bound inside
  /// one block without touching the file.
  std::vector<uint64_t> block_keys;
};

namespace internal {

inline uint64_t SpillKeyOffset() { return kSpillHeaderBytes; }

template <typename K, typename V>
uint64_t SpillValueOffset(uint64_t num_pairs) {
  return kSpillHeaderBytes + num_pairs * sizeof(K);
}

inline IoResult SpillFail(IoResult::Op op, int err, std::string detail) {
  IoResult r;
  r.op = op;
  r.err = err;
  r.detail = std::move(detail);
  return r;
}

/// Throws the SpillIoError a failed read-side IoResult stands for.
inline void ThrowIfFailed(IoResult r) {
  if (!r.ok()) throw SpillIoError(std::move(r));
}

/// Shared read-side handle: opens a spill file (with retry on transient
/// errno), validates the header against the caller's SpillFileInfo, loads
/// and verifies the checksum footer, and serves positioned reads. Every
/// operation returns a typed IoResult; the cursor and the probe turn
/// failures into SpillIoError (ThrowIfFailed), while FileRunCursor::Create
/// reports a failed open as a Status.
///
/// `expect_vsize` = 0 skips the value-size check (SpillKeyProbe does not
/// know V; it takes the on-disk size as authoritative for computing the
/// footer offset).
class SpillReadHandle {
 public:
  SpillReadHandle() = default;
  ~SpillReadHandle() {
    if (fd_ >= 0) ::close(fd_);
  }
  SpillReadHandle(SpillReadHandle&& other) noexcept { *this = std::move(other); }
  SpillReadHandle& operator=(SpillReadHandle&& other) noexcept {
    if (this != &other) {
      if (fd_ >= 0) ::close(fd_);
      fd_ = other.fd_;
      other.fd_ = -1;
      path_ = std::move(other.path_);
      num_pairs_ = other.num_pairs_;
      ksize_ = other.ksize_;
      vsize_ = other.vsize_;
      key_crcs_ = std::move(other.key_crcs_);
      value_crcs_ = std::move(other.value_crcs_);
    }
    return *this;
  }
  SpillReadHandle(const SpillReadHandle&) = delete;
  SpillReadHandle& operator=(const SpillReadHandle&) = delete;

  bool open() const { return fd_ >= 0; }
  const std::vector<uint32_t>& key_crcs() const { return key_crcs_; }
  const std::vector<uint32_t>& value_crcs() const { return value_crcs_; }

  /// Opens and validates the file. On failure the handle stays closed.
  IoResult TryOpen(const SpillFileInfo& info, uint32_t expect_ksize,
                   uint32_t expect_vsize, const IoRetryPolicy& policy) {
    path_ = info.path.string();
    policy_ = policy;
    for (int attempt = 0;; ++attempt) {
      const int fe = FailpointHit("spill.read.open");
      fd_ = fe != 0 ? -1 : ::open(path_.c_str(), O_RDONLY);
      if (fd_ >= 0) break;
      const int err = fe != 0 ? fe : errno;
      if (IoRetryPolicy::IsTransient(err) && attempt + 1 < policy_.max_attempts) {
        policy_.BackoffSleep(attempt);
        continue;
      }
      return SpillFail(IoResult::Op::kOpen, err,
                       "cannot open spill file " + path_);
    }
    uint64_t header[2] = {0, 0};
    uint32_t sizes[2] = {0, 0};
    IoResult r = ReadAt(0, header, sizeof(header), "spill header");
    if (r.ok()) r = ReadAt(sizeof(header), sizes, sizeof(sizes), "spill header");
    if (r.ok() && header[0] != kSpillMagic) {
      r = SpillFail(IoResult::Op::kFormat, 0,
                    "bad spill magic in " + path_ +
                        " (not a WVMRPIL2 spill file)");
    }
    if (r.ok() && header[1] != info.num_pairs) {
      r = SpillFail(IoResult::Op::kFormat, 0,
                    "spill pair-count mismatch in " + path_ + ": header says " +
                        std::to_string(header[1]) + ", expected " +
                        std::to_string(info.num_pairs));
    }
    if (r.ok() && (sizes[0] != expect_ksize ||
                   (expect_vsize != 0 && sizes[1] != expect_vsize) ||
                   sizes[1] == 0)) {
      r = SpillFail(IoResult::Op::kFormat, 0,
                    "spill record-size mismatch in " + path_);
    }
    if (r.ok()) {
      num_pairs_ = header[1];
      ksize_ = sizes[0];
      vsize_ = sizes[1];
      r = LoadFooter();
    }
    if (!r.ok()) {
      ::close(fd_);
      fd_ = -1;
    }
    return r;
  }

  /// Positioned read of exactly `bytes` via pread; retries transient errno
  /// per policy. Returns kFormat on EOF (truncation) and kRead on hard
  /// errors.
  IoResult ReadAt(uint64_t offset, void* out, size_t bytes,
                  const char* what) const {
    for (int attempt = 0;; ++attempt) {
      const int fe = FailpointHit("spill.read.read");
      int err = 0;
      if (fe != 0) {
        err = fe;
      } else {
        size_t done = 0;
        while (done < bytes) {
          const ssize_t got =
              ::pread(fd_, static_cast<char*>(out) + done, bytes - done,
                      static_cast<off_t>(offset + done));
          if (got > 0) {
            done += static_cast<size_t>(got);
            continue;
          }
          if (got == 0) {
            return SpillFail(IoResult::Op::kFormat, 0,
                             "truncated spill file " + path_ +
                                 " (short read of " + what + ")");
          }
          err = errno;
          break;
        }
        if (done == bytes) return IoResult{};
      }
      if (IoRetryPolicy::IsTransient(err) && attempt + 1 < policy_.max_attempts) {
        policy_.BackoffSleep(attempt);
        continue;
      }
      return SpillFail(IoResult::Op::kRead, err,
                       std::string(what) + " in " + path_);
    }
  }

  /// Verifies one column block against its stored checksum.
  IoResult VerifyBlock(const std::vector<uint32_t>& crcs, uint64_t block,
                       const void* data, size_t bytes,
                       const char* column) const {
    const uint32_t computed = Crc32c(data, bytes);
    if (block < crcs.size() && crcs[block] == computed) return IoResult{};
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "%s block %llu checksum mismatch (stored 0x%08x, computed "
                  "0x%08x)",
                  column, static_cast<unsigned long long>(block),
                  block < crcs.size() ? crcs[block] : 0u, computed);
    return SpillFail(IoResult::Op::kChecksum, 0,
                     std::string(msg) + " in " + path_);
  }

 private:
  IoResult LoadFooter() {
    const uint64_t nblocks = SpillNumBlocks(num_pairs_);
    const uint64_t footer_off =
        kSpillHeaderBytes + num_pairs_ * (uint64_t{ksize_} + vsize_);
    std::vector<uint32_t> footer(2 * nblocks + 1);
    IoResult r = ReadAt(footer_off, footer.data(),
                        footer.size() * sizeof(uint32_t),
                        "spill checksum footer");
    if (!r.ok()) return r;
    const uint32_t computed =
        Crc32c(footer.data(), 2 * nblocks * sizeof(uint32_t));
    if (footer[2 * nblocks] != computed) {
      char msg[128];
      std::snprintf(msg, sizeof(msg),
                    "spill footer checksum mismatch (stored 0x%08x, computed "
                    "0x%08x)",
                    footer[2 * nblocks], computed);
      return SpillFail(IoResult::Op::kChecksum, 0,
                       std::string(msg) + " in " + path_);
    }
    key_crcs_.assign(footer.begin(), footer.begin() + nblocks);
    value_crcs_.assign(footer.begin() + nblocks, footer.begin() + 2 * nblocks);
    return IoResult{};
  }

  int fd_ = -1;
  std::string path_;
  IoRetryPolicy policy_;
  uint64_t num_pairs_ = 0;
  uint32_t ksize_ = 0;
  uint32_t vsize_ = 0;
  std::vector<uint32_t> key_crcs_;
  std::vector<uint32_t> value_crcs_;
};

}  // namespace internal

/// Outcome of WriteSpillFile: `io.ok()` on success with the final file size;
/// on failure the partial file has already been deleted. `retries` counts
/// re-attempts actually performed (0 = first try succeeded / failed hard).
struct SpillWriteResult {
  IoResult io;
  uint64_t file_bytes = 0;
  uint32_t retries = 0;
};

namespace internal {

/// One write attempt. On failure the stream is closed but the partial file
/// is left for the caller (the retry loop) to delete.
template <typename K, typename V>
IoResult WriteSpillFileOnce(const std::filesystem::path& path, const K* keys,
                            const V* values, uint64_t n,
                            const std::vector<uint32_t>& footer) {
  const std::string name = path.string();
  int fe = FailpointHit("spill.write.open");
  std::FILE* f = fe != 0 ? nullptr : std::fopen(name.c_str(), "wb");
  if (f == nullptr) {
    return SpillFail(IoResult::Op::kOpen, fe != 0 ? fe : errno,
                     "cannot create spill file " + name);
  }
  const uint64_t magic = kSpillMagic;
  const uint32_t ksize = sizeof(K);
  const uint32_t vsize = sizeof(V);
  errno = 0;
  fe = FailpointHit("spill.write.write");
  bool ok = fe == 0;
  ok = ok && std::fwrite(&magic, sizeof(magic), 1, f) == 1 &&
       std::fwrite(&n, sizeof(n), 1, f) == 1 &&
       std::fwrite(&ksize, sizeof(ksize), 1, f) == 1 &&
       std::fwrite(&vsize, sizeof(vsize), 1, f) == 1;
  if (ok && n > 0) {
    ok = std::fwrite(keys, sizeof(K), n, f) == n &&
         std::fwrite(values, sizeof(V), n, f) == n;
  }
  ok = ok && std::fwrite(footer.data(), sizeof(uint32_t), footer.size(), f) ==
                 footer.size();
  if (!ok) {
    const int err = fe != 0 ? fe : (errno != 0 ? errno : EIO);
    std::fclose(f);
    return SpillFail(IoResult::Op::kWrite, err,
                     "short write to spill file " + name);
  }
  fe = FailpointHit("spill.write.close");
  if (fe != 0) {
    std::fclose(f);
    return SpillFail(IoResult::Op::kClose, fe, "cannot close spill file " + name);
  }
  errno = 0;
  if (std::fclose(f) != 0) {
    return SpillFail(IoResult::Op::kClose, errno != 0 ? errno : EIO,
                     "cannot close spill file " + name);
  }
  return IoResult{};
}

}  // namespace internal

/// Writes one sorted run's columns to `path` in the checksummed WVMRPIL2
/// framing. Keys and values must be trivially copyable (every shuffle value
/// in this codebase is a packed POD message).
///
/// Never aborts on IO failure: transient errno is retried per `policy`
/// (each retry rewrites from scratch), any partial file is deleted before
/// returning, and the typed IoResult lets the caller degrade -- the shuffle
/// plane's response is to keep the run resident (ShufflePlane fallback)
/// rather than lose data or kill the job.
template <typename K, typename V>
SpillWriteResult WriteSpillFile(const std::filesystem::path& path,
                                const K* keys, const V* values, uint64_t n,
                                const IoRetryPolicy& policy = IoRetryPolicy()) {
  static_assert(std::is_trivially_copyable_v<K> && std::is_trivially_copyable_v<V>,
                "spill framing memcpys raw columns");
  // Checksum footer over the in-memory columns, computed once across
  // retries: what lands on disk must match what the writer held, not what a
  // previous torn attempt wrote. Per-block CRC32C of the key and value
  // columns, then the footer CRC, in on-disk layout.
  const uint64_t nblocks = SpillNumBlocks(n);
  std::vector<uint32_t> footer(2 * nblocks + 1);
  for (uint64_t b = 0; b < nblocks; ++b) {
    const uint64_t lo = b * kSpillIndexBlockPairs;
    const uint64_t cnt = std::min(kSpillIndexBlockPairs, n - lo);
    footer[b] = Crc32c(keys + lo, cnt * sizeof(K));
    footer[nblocks + b] = Crc32c(values + lo, cnt * sizeof(V));
  }
  footer[2 * nblocks] = Crc32c(footer.data(), 2 * nblocks * sizeof(uint32_t));

  SpillWriteResult result;
  for (int attempt = 0;; ++attempt) {
    result.io = internal::WriteSpillFileOnce<K, V>(path, keys, values, n, footer);
    if (result.io.ok()) {
      result.file_bytes = SpillFileBytes<K, V>(n);
      result.retries = static_cast<uint32_t>(attempt);
      return result;
    }
    // Never leave a torn file behind: a later open would read garbage or a
    // directory sweep would double-count it.
    std::error_code ec;
    std::filesystem::remove(path, ec);
    if (!IoRetryPolicy::IsTransient(result.io.err) ||
        attempt + 1 >= policy.max_attempts) {
      result.retries = static_cast<uint32_t>(attempt);
      return result;
    }
    policy.BackoffSleep(attempt);
  }
}

/// Streaming block cursor over an index range [begin, end) of one spill
/// file's pairs. Each cursor owns its fd and its two block buffers, so
/// cursors over the same file (one per reduce slice) are safe to advance
/// from different threads. NextBlock loads (keys, values) pairs into those
/// buffers and hands out raw column pointers -- the same shape RunMerger's
/// resident cursors have, so file-backed and in-memory runs merge through
/// one loser tree.
///
/// Reads are always whole checksum blocks (kSpillIndexBlockPairs pairs,
/// cached), read on the calling thread and verified against the stored
/// CRC32C before any byte is served; a refill request is clamped to the
/// current block's end, so callers see at most block_pairs pairs per call
/// but possibly fewer. IO failures and corruption throw SpillIoError when
/// NextBlock first touches the failing block.
template <typename K, typename V>
class FileRunCursor {
 public:
  /// Upper bound on pairs per refill: 4096 * (8 + 8) bytes = 64 KiB per
  /// column pair for the common u64/u64 shuffle -- big enough to amortize
  /// the read, small enough that R cursors * 2 columns stay cache-friendly.
  static constexpr uint64_t kDefaultBlockPairs = 4096;

  /// Opens the file; a failed open or a bad header/footer throws
  /// SpillIoError.
  FileRunCursor(const SpillFileInfo& info, uint64_t begin, uint64_t end,
                uint64_t block_pairs = kDefaultBlockPairs,
                const IoRetryPolicy& policy = IoRetryPolicy())
      : FileRunCursor(Unopened{}, info, begin, end, block_pairs) {
    internal::ThrowIfFailed(handle_.TryOpen(info, sizeof(K), sizeof(V), policy));
  }

  /// Typed construction: open/header/footer failures come back as a Status
  /// instead of a SpillIoError throw.
  static StatusOr<std::unique_ptr<FileRunCursor>> Create(
      const SpillFileInfo& info, uint64_t begin, uint64_t end,
      uint64_t block_pairs = kDefaultBlockPairs,
      const IoRetryPolicy& policy = IoRetryPolicy()) {
    auto cursor = std::unique_ptr<FileRunCursor>(
        new FileRunCursor(Unopened{}, info, begin, end, block_pairs));
    const IoResult r =
        cursor->handle_.TryOpen(info, sizeof(K), sizeof(V), policy);
    if (!r.ok()) return r.ToStatus();
    return cursor;
  }

  FileRunCursor(const FileRunCursor&) = delete;
  FileRunCursor& operator=(const FileRunCursor&) = delete;

  uint64_t remaining() const { return end_ - pos_; }

  /// Loads the next slice of the range. Returns the number of pairs loaded
  /// (0 at end of range); *keys/*values point at the cursor-owned buffers
  /// and stay valid until the next NextBlock call.
  uint64_t NextBlock(const K** keys, const V** values) {
    uint64_t want = remaining() < block_pairs_ ? remaining() : block_pairs_;
    if (want == 0) return 0;
    const uint64_t block = pos_ / kSpillIndexBlockPairs;
    const uint64_t block_lo = block * kSpillIndexBlockPairs;
    const uint64_t block_hi =
        std::min(block_lo + kSpillIndexBlockPairs, num_pairs_);
    want = std::min(want, block_hi - pos_);
    LoadBlock(block, block_lo, block_hi - block_lo);
    *keys = keys_.get() + (pos_ - block_lo);
    *values = values_.get() + (pos_ - block_lo);
    pos_ += want;
    return want;
  }

 private:
  struct Unopened {};

  FileRunCursor(Unopened, const SpillFileInfo& info, uint64_t begin,
                uint64_t end, uint64_t block_pairs)
      : num_pairs_(info.num_pairs),
        pos_(begin),
        end_(end < info.num_pairs ? end : info.num_pairs),
        block_pairs_(block_pairs == 0 ? 1 : block_pairs) {
    static_assert(std::is_trivially_copyable_v<K> && std::is_trivially_copyable_v<V>);
    WAVEMR_CHECK(begin <= end_) << "inverted spill cursor range";
  }

  /// Reads + CRC-verifies checksum block `block` (pairs [lo, lo + count)).
  void LoadBlock(uint64_t block, uint64_t lo, uint64_t count) {
    if (block == loaded_block_) return;
    if (keys_ == nullptr) {
      const uint64_t cap = std::min(kSpillIndexBlockPairs, num_pairs_);
      keys_.reset(new K[cap]);
      values_.reset(new V[cap]);
    }
    internal::ThrowIfFailed(
        handle_.ReadAt(internal::SpillKeyOffset() + lo * sizeof(K), keys_.get(),
                       count * sizeof(K), "spill key block"));
    internal::ThrowIfFailed(handle_.VerifyBlock(
        handle_.key_crcs(), block, keys_.get(), count * sizeof(K), "spill key"));
    internal::ThrowIfFailed(handle_.ReadAt(
        internal::SpillValueOffset<K, V>(num_pairs_) + lo * sizeof(V),
        values_.get(), count * sizeof(V), "spill value block"));
    internal::ThrowIfFailed(
        handle_.VerifyBlock(handle_.value_crcs(), block, values_.get(),
                            count * sizeof(V), "spill value"));
    loaded_block_ = block;
  }

  internal::SpillReadHandle handle_;
  uint64_t num_pairs_;
  uint64_t pos_;
  uint64_t end_;
  uint64_t block_pairs_;
  uint64_t loaded_block_ = std::numeric_limits<uint64_t>::max();
  std::unique_ptr<K[]> keys_;
  std::unique_ptr<V[]> values_;
};

/// Random-access lower/upper-bound probes over one spill file's sorted key
/// block, sharing one open handle across calls. The `*Bounds` variants
/// answer from SpillFileInfo's in-memory sparse block index alone -- zero
/// IO, the true index bracketed inside one kSpillIndexBlockPairs block --
/// which is what the equi-depth rank search wants: most binary-search steps
/// are decided by the bracket, and only the final refinements pay a read.
/// The exact variants read whole checksum-verified key blocks and cache the
/// last one, so probing the same region repeatedly (rank search convergence,
/// the lower/upper pair sizing a key group) costs a single pread; without
/// the sparse index a lower bound degrades to a binary search over verified
/// blocks (log(nblocks) reads).
///
/// One probe is single-threaded; concurrent reduce tasks each build their
/// own (same ownership rule as FileRunCursor).
template <typename K>
class SpillKeyProbe {
 public:
  struct IndexBounds {
    uint64_t min;  // true index is >= min
    uint64_t max;  // ... and <= max; min == max means exact already
  };

  explicit SpillKeyProbe(const SpillFileInfo& info,
                         const IoRetryPolicy& policy = IoRetryPolicy())
      : info_(&info), policy_(policy) {}

  SpillKeyProbe(SpillKeyProbe&& other) noexcept = default;
  SpillKeyProbe(const SpillKeyProbe&) = delete;
  SpillKeyProbe& operator=(const SpillKeyProbe&) = delete;
  SpillKeyProbe& operator=(SpillKeyProbe&&) = delete;

  /// Brackets LowerBound(key) using only min/max and the sparse block index
  /// -- no IO.
  IndexBounds LowerBoundBounds(const K& key) const {
    const SpillFileInfo& in = *info_;
    if (in.num_pairs == 0 || key <= in.min_key) return IndexBounds{0, 0};
    if (key > in.max_key) return IndexBounds{in.num_pairs, in.num_pairs};
    if (in.block_keys.empty()) return IndexBounds{0, in.num_pairs};
    // First block whose leading key is >= key; j >= 1 because block 0 leads
    // with min_key < key. The answer sits after block j-1's leading key and
    // no later than block j's start.
    const uint64_t j = static_cast<uint64_t>(
        std::lower_bound(in.block_keys.begin(), in.block_keys.end(), key) -
        in.block_keys.begin());
    const uint64_t lo = (j - 1) * kSpillIndexBlockPairs + 1;
    const uint64_t hi =
        j < in.block_keys.size() ? j * kSpillIndexBlockPairs : in.num_pairs;
    return IndexBounds{lo, hi};
  }

  /// Brackets UpperBound(key) (first index with key strictly greater).
  IndexBounds UpperBoundBounds(const K& key) const {
    if (key == std::numeric_limits<K>::max()) {
      return IndexBounds{info_->num_pairs, info_->num_pairs};
    }
    return LowerBoundBounds(static_cast<K>(key + 1));
  }

  /// Exact std::lower_bound index over the on-disk key block: at most one
  /// verified block read (cached) when the sparse index is present.
  uint64_t LowerBound(const K& key) {
    const IndexBounds b = LowerBoundBounds(key);
    uint64_t lo = b.min;
    uint64_t hi = b.max;
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (KeyAt(mid) < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Exact std::upper_bound index; for the unsigned keys this is
  /// LowerBound(key + 1), sharing the cached block when both land together.
  uint64_t UpperBound(const K& key) {
    if (key == std::numeric_limits<K>::max()) return info_->num_pairs;
    return LowerBound(static_cast<K>(key + 1));
  }

 private:
  /// Key at pair index `i`, served from the cached checksum block (loaded
  /// and verified on miss).
  K KeyAt(uint64_t i) {
    const uint64_t block = i / kSpillIndexBlockPairs;
    if (block != cached_block_) {
      if (!handle_.open()) {
        internal::ThrowIfFailed(
            handle_.TryOpen(*info_, sizeof(K), /*expect_vsize=*/0, policy_));
      }
      const uint64_t lo = block * kSpillIndexBlockPairs;
      const uint64_t count =
          std::min(kSpillIndexBlockPairs, info_->num_pairs - lo);
      cache_.resize(static_cast<size_t>(count));
      internal::ThrowIfFailed(
          handle_.ReadAt(internal::SpillKeyOffset() + lo * sizeof(K),
                         cache_.data(), count * sizeof(K), "spill key block"));
      internal::ThrowIfFailed(handle_.VerifyBlock(
          handle_.key_crcs(), block, cache_.data(), count * sizeof(K),
          "spill key"));
      cached_block_ = block;
    }
    return cache_[static_cast<size_t>(i - cached_block_ * kSpillIndexBlockPairs)];
  }

  const SpillFileInfo* info_;
  IoRetryPolicy policy_;
  internal::SpillReadHandle handle_;
  uint64_t cached_block_ = std::numeric_limits<uint64_t>::max();
  std::vector<K> cache_;
};

/// Lazily created process-unique temp directory for one MrEnv's spill files
/// (the analog of a task tracker's mapred.local.dir). The directory and
/// anything left inside it are removed when the env dies; individual rounds
/// delete their own files as they finish (ShufflePlane is RAII over its
/// spills), so the recursive remove is the backstop for crashes inside
/// algorithm code, not the primary cleanup path.
class SpillDir {
 public:
  SpillDir() = default;
  ~SpillDir() { Remove(); }

  SpillDir(const SpillDir&) = delete;
  SpillDir& operator=(const SpillDir&) = delete;

  /// Unique file path inside the (created-on-first-use) directory.
  std::filesystem::path NextFilePath(const std::string& tag) {
    EnsureCreated();
    return dir_ / (tag + "-" + std::to_string(next_file_++) + ".spill");
  }

  /// True once a spill has forced the directory into existence.
  bool created() const { return created_; }
  const std::filesystem::path& path() const { return dir_; }

  /// Deletes the directory tree; safe to call repeatedly.
  void Remove() {
    if (!created_) return;
    std::error_code ec;  // best effort: never throw from a destructor path
    std::filesystem::remove_all(dir_, ec);
    created_ = false;
  }

 private:
  void EnsureCreated() {
    if (created_) return;
    static std::atomic<uint64_t> counter{0};
    const uint64_t id = counter.fetch_add(1, std::memory_order_relaxed);
    dir_ = std::filesystem::temp_directory_path() /
           ("wavemr-spill-" + std::to_string(::getpid()) + "-" + std::to_string(id));
    std::filesystem::create_directories(dir_);
    created_ = true;
  }

  std::filesystem::path dir_;
  bool created_ = false;
  uint64_t next_file_ = 0;
};

}  // namespace wavemr

#endif  // WAVEMR_MAPREDUCE_SPILL_H_
