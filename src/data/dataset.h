#ifndef WAVEMR_DATA_DATASET_H_
#define WAVEMR_DATA_DATASET_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/rng.h"
#include "data/zipf.h"

namespace wavemr {

/// Static description of a dataset living in the (simulated) distributed
/// file system: n records with integer keys from [0, u), stored as m splits
/// of fixed-size binary records.
struct DatasetInfo {
  uint64_t num_records = 0;  // n
  uint64_t domain_size = 1;  // u, a power of two
  uint64_t num_splits = 1;   // m
  uint32_t record_bytes = 4;  // on-disk record size (key + payload)
  uint32_t key_bytes = 4;     // wire size of a key in emitted pairs
};

/// Abstract dataset: what a Hadoop InputFormat sees. Implementations must be
/// deterministic: ScanSplit visits records in "file order", and KeyAt(j, i)
/// returns the key of the i-th record of split j -- the primitive the
/// paper's RandomRecordReader needs (seek to a random record).
///
/// ReadKeys is the batch primitive the hot path is built on: the engine
/// pulls keys in chunks of a few thousand, paying one virtual call per chunk
/// instead of one std::function call per record (SplitAccess::ScanBatches).
class Dataset {
 public:
  virtual ~Dataset() = default;

  virtual const DatasetInfo& info() const = 0;

  /// Number of records in split j (splits may be uneven).
  virtual uint64_t SplitRecords(uint64_t split) const = 0;

  /// Fills `out` with up to `capacity` keys of split j starting at record
  /// `start` (in record order); returns the number written -- 0 only at the
  /// end of the split. Thread-safe for concurrent map tasks.
  virtual uint64_t ReadKeys(uint64_t split, uint64_t start, uint64_t* out,
                            uint64_t capacity) const = 0;

  /// Sequential scan of split j in record order (per-key convenience
  /// adapter over ReadKeys; the engine hot path uses ReadKeys directly).
  void ScanSplit(uint64_t split, const std::function<void(uint64_t key)>& fn) const;

  /// Random access to the key of record `index` (0-based) of split j.
  virtual uint64_t KeyAt(uint64_t split, uint64_t index) const = 0;

  /// Bytes of split j on disk.
  uint64_t SplitBytes(uint64_t split) const {
    return SplitRecords(split) * info().record_bytes;
  }
};

/// Keys pulled per Dataset::ReadKeys call by the chunked scan helpers: large
/// enough to amortize the virtual dispatch, small enough to stay L1/L2
/// resident (16 KB).
inline constexpr uint64_t kKeyBatchSize = 2048;

/// Drains split j of `dataset` through a stack buffer, invoking
/// `fn(const uint64_t* keys, uint64_t n)` per chunk. The one batched scan
/// loop behind Dataset::ScanSplit, the frequency builders, and
/// SplitAccess::ScanBatches.
template <typename BatchFn>
void ForEachKeyBatch(const Dataset& dataset, uint64_t split, BatchFn&& fn) {
  uint64_t buffer[kKeyBatchSize];
  uint64_t start = 0;
  for (;;) {
    uint64_t got = dataset.ReadKeys(split, start, buffer, kKeyBatchSize);
    if (got == 0) return;
    fn(static_cast<const uint64_t*>(buffer), got);
    start += got;
  }
}

/// Lazily materialized per-split key store shared by the generated datasets.
/// Generating a synthetic record is ~140 ns (counter RNG + rejection
/// sampling + Feistel scatter) -- two orders of magnitude more than reading
/// it from memory, which is what a real deployment does after the first HDFS
/// read lands in the page cache. Each split is generated exactly once, by
/// the first scanner that touches it (concurrent map tasks materialize
/// disjoint splits in parallel); afterwards every scan is a memcpy.
class SplitKeyCache {
 public:
  explicit SplitKeyCache(uint64_t num_splits)
      : flags_(num_splits), splits_(num_splits) {}

  /// Returns split j's keys, materializing via `generate(out)` on first use.
  /// `generate` must append exactly the split's keys in record order.
  const std::vector<uint64_t>& Get(
      uint64_t split, const std::function<void(std::vector<uint64_t>*)>& generate) const {
    std::call_once(flags_[split], [&] { generate(&splits_[split]); });
    return splits_[split];
  }

 private:
  mutable std::deque<std::once_flag> flags_;   // deque: once_flag is immovable
  mutable std::vector<std::vector<uint64_t>> splits_;
};

/// Parameters of a synthetic Zipf dataset (the paper's default workload).
struct ZipfDatasetOptions {
  uint64_t num_records = 1 << 22;
  uint64_t domain_size = 1 << 18;  // power of two
  double alpha = 1.1;
  uint64_t num_splits = 128;
  uint32_t record_bytes = 4;
  uint64_t seed = 42;
  /// Scatter Zipf ranks over the key domain with a Feistel permutation so
  /// frequency is not monotone in key value (FeistelPermutation). The paper's
  /// permutation of record order falls out of the counter-based generation.
  bool permute_keys = true;
  /// Materialize each split's keys on first scan (8 bytes per record). Turn
  /// off only when memory is tighter than CPU; generated keys are identical
  /// either way.
  bool cache_keys = true;
};

/// Deterministic generated Zipf dataset: record (j, i) is produced by an
/// independent counter-based RNG stream, so both sequential scans and O(1)
/// random access are exactly reproducible without storing anything.
class ZipfDataset : public Dataset {
 public:
  explicit ZipfDataset(const ZipfDatasetOptions& options);

  const DatasetInfo& info() const override { return info_; }
  uint64_t SplitRecords(uint64_t split) const override;
  uint64_t ReadKeys(uint64_t split, uint64_t start, uint64_t* out,
                    uint64_t capacity) const override;
  uint64_t KeyAt(uint64_t split, uint64_t index) const override;

 private:
  uint64_t RankToKey(uint64_t rank) const;
  void GenerateSplit(uint64_t split, std::vector<uint64_t>* out) const;

  ZipfDatasetOptions options_;
  DatasetInfo info_;
  ZipfDistribution zipf_;
  FeistelPermutation perm_;
  std::unique_ptr<SplitKeyCache> cache_;  // null when cache_keys is off
};

/// Synthetic stand-in for the WorldCup'98 click log (Figures 17-19): records
/// carry 10 4-byte attributes; the key is the "clientobject" pair
/// client_id x object_id, both Zipf-distributed, scattered over the domain.
struct WorldCupDatasetOptions {
  uint64_t num_records = 1 << 22;
  uint64_t num_clients = 1 << 10;   // power of two
  uint64_t num_objects = 1 << 8;    // power of two; u = clients * objects
  double client_alpha = 1.2;        // client activity skew
  double object_alpha = 1.0;        // object popularity skew
  uint64_t num_splits = 128;
  uint64_t seed = 7;
  /// See ZipfDatasetOptions::cache_keys.
  bool cache_keys = true;
};

class WorldCupDataset : public Dataset {
 public:
  explicit WorldCupDataset(const WorldCupDatasetOptions& options);

  const DatasetInfo& info() const override { return info_; }
  uint64_t SplitRecords(uint64_t split) const override;
  uint64_t ReadKeys(uint64_t split, uint64_t start, uint64_t* out,
                    uint64_t capacity) const override;
  uint64_t KeyAt(uint64_t split, uint64_t index) const override;

 private:
  void GenerateSplit(uint64_t split, std::vector<uint64_t>* out) const;

  WorldCupDatasetOptions options_;
  DatasetInfo info_;
  ZipfDistribution client_zipf_;
  ZipfDistribution object_zipf_;
  FeistelPermutation perm_;
  std::unique_ptr<SplitKeyCache> cache_;
};

/// Fully materialized dataset for unit tests: explicit keys per split.
class InMemoryDataset : public Dataset {
 public:
  InMemoryDataset(std::vector<std::vector<uint64_t>> splits, uint64_t domain_size,
                  uint32_t record_bytes = 4);

  const DatasetInfo& info() const override { return info_; }
  uint64_t SplitRecords(uint64_t split) const override;
  uint64_t ReadKeys(uint64_t split, uint64_t start, uint64_t* out,
                    uint64_t capacity) const override;
  uint64_t KeyAt(uint64_t split, uint64_t index) const override;

 private:
  std::vector<std::vector<uint64_t>> splits_;
  DatasetInfo info_;
};

}  // namespace wavemr

#endif  // WAVEMR_DATA_DATASET_H_
