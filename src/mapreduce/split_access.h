#ifndef WAVEMR_MAPREDUCE_SPLIT_ACCESS_H_
#define WAVEMR_MAPREDUCE_SPLIT_ACCESS_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "mapreduce/cost_model.h"
#include "mapreduce/stats.h"

namespace wavemr {

/// A Mapper's cost-accounted view of its input split. The engine hands every
/// mapper one of these instead of a raw Dataset so that whatever the
/// algorithm does -- full scans (Send-V, H-WTopk round 1), random sampling
/// (the samplers' RandomRecordReader), or nothing at all (H-WTopk rounds
/// 2-3, which only read state files) -- is charged consistently.
class SplitAccess {
 public:
  /// Keys delivered per ScanBatches callback (one Dataset::ReadKeys call).
  static constexpr uint64_t kScanBatch = kKeyBatchSize;

  SplitAccess(const Dataset& dataset, uint64_t split, const CostModel& cost_model,
              TaskCost* cost)
      : dataset_(dataset), split_(split), cost_model_(cost_model), cost_(cost) {}

  uint64_t split_id() const { return split_; }
  uint64_t num_records() const { return dataset_.SplitRecords(split_); }
  uint64_t split_bytes() const { return dataset_.SplitBytes(split_); }
  const DatasetInfo& dataset_info() const { return dataset_.info(); }

  /// Sequential scan of every record in chunks: `fn(const uint64_t* keys,
  /// uint64_t n)` is invoked with batches of up to kScanBatch keys in record
  /// order. Templated on the callback so the per-batch call inlines -- this
  /// is the data plane's hot path. Charges disk for the whole split and base
  /// map CPU per record, exactly like the per-key Scan.
  template <typename BatchFn>
  void ScanBatches(BatchFn&& fn) {
    ChargeSequentialScan();
    ForEachKeyBatch(dataset_, split_, std::forward<BatchFn>(fn));
  }

  /// The whole split's keys in record order: one ScanBatches pass into a
  /// single array, charged the same.
  std::vector<uint64_t> ReadAllKeys() {
    std::vector<uint64_t> keys;
    keys.reserve(num_records());
    ScanBatches([&keys](const uint64_t* batch, uint64_t n) {
      keys.insert(keys.end(), batch, batch + n);
    });
    return keys;
  }

  /// Per-key sequential scan: thin adapter over ScanBatches for call sites
  /// that want one key at a time. `fn(uint64_t key)` still inlines; only
  /// prefer ScanBatches when the loop body wants the whole chunk.
  template <typename KeyFn>
  void Scan(KeyFn&& fn) {
    ScanBatches([&fn](const uint64_t* keys, uint64_t n) {
      for (uint64_t i = 0; i < n; ++i) fn(keys[i]);
    });
  }

  /// Random access to one record's key. Charges CPU only; use
  /// ChargeRandomRead once with the total sample count for the disk side.
  uint64_t KeyAt(uint64_t index) {
    cost_->records_read += 1;
    cost_->cpu_ns += cost_model_.map_cpu_ns_per_record;
    return dataset_.KeyAt(split_, index);
  }

  /// Disk charge for reading `sample_count` records at sorted random
  /// offsets: one page each, capped at the split size (dense sampling
  /// degrades to a sequential scan).
  void ChargeRandomRead(uint64_t sample_count) {
    double pages = static_cast<double>(sample_count) * cost_model_.seek_page_bytes;
    cost_->disk_bytes += static_cast<uint64_t>(
        std::min(pages, static_cast<double>(split_bytes())));
  }

 private:
  void ChargeSequentialScan() {
    cost_->disk_bytes += split_bytes();
    uint64_t n = num_records();
    cost_->records_read += n;
    cost_->cpu_ns += static_cast<double>(n) * cost_model_.map_cpu_ns_per_record;
  }

  const Dataset& dataset_;
  uint64_t split_;
  const CostModel& cost_model_;
  TaskCost* cost_;
};

}  // namespace wavemr

#endif  // WAVEMR_MAPREDUCE_SPLIT_ACCESS_H_
