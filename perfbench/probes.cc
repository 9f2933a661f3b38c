#include "probes.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/crc32c.h"
#include "core/simd.h"
#include "data/frequency.h"
#include "loadgen.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/spill.h"
#include "serve/estimator.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "sketch/wavelet_gcs.h"
#include "wavelet/haar.h"
#include "wavelet/sparse.h"

namespace wavemr {
namespace perfbench {

namespace {

// Probes touch at most this many splits, so a probe costs a bounded slice of
// the run whatever the workload's size.
constexpr uint64_t kSketchSplits = 4;
constexpr uint64_t kShuffleSplits = 16;
constexpr int kRepeats = 3;

template <typename T>
void KeepAlive(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-6;
}

uint64_t Fold(uint64_t checksum, uint64_t key, uint64_t value) {
  return checksum * 1315423911ull + key * 31 + value;
}

}  // namespace

void ProbeDataAndWavelet(const Dataset& dataset, Tracer* tracer,
                         MetricSet* out) {
  const DatasetInfo& info = dataset.info();
  {
    Tracer::Scope span(tracer, "data.scan");
    std::vector<double> ms;
    for (int r = 0; r < kRepeats; ++r) {
      const int64_t t0 = NowNs();
      uint64_t sum = 0;
      for (uint64_t j = 0; j < info.num_splits; ++j) {
        ForEachKeyBatch(dataset, j, [&sum](const uint64_t* keys, uint64_t n) {
          for (uint64_t i = 0; i < n; ++i) sum += keys[i];
        });
      }
      KeepAlive(sum);
      ms.push_back(MsSince(t0));
    }
    out->Set("data.scan_rec_per_s",
             static_cast<double>(info.num_records) / (Median(ms) * 1e-3),
             "1/s");
  }

  std::vector<SparseVector> local(info.num_splits);
  {
    Tracer::Scope span(tracer, "data.split_freq");
    double total_ms = 0.0;
    for (uint64_t j = 0; j < info.num_splits; ++j) {
      const int64_t t0 = NowNs();
      FrequencyMap freq = BuildSplitFrequencyMap(dataset, j);
      total_ms += MsSince(t0);
      local[j] = ToSparseVector(freq);
    }
    out->Set("data.split_freq_ms", total_ms, "ms");
  }

  {
    Tracer::Scope span(tracer, "wavelet.sparse_haar");
    const int64_t t0 = NowNs();
    uint64_t coeffs = 0;
    for (const SparseVector& v : local) {
      coeffs += SparseHaar(v, info.domain_size).size();
    }
    out->Set("wavelet.sparse_haar_ms", MsSince(t0), "ms");
    out->Set("wavelet.coeffs_per_split",
             static_cast<double>(coeffs) / static_cast<double>(local.size()),
             "count");
  }

  {
    Tracer::Scope span(tracer, "wavelet.dense_haar");
    std::vector<double> dense(info.domain_size, 0.0);
    for (const SparseVector& v : local) {
      for (const auto& [key, weight] : v) dense[key] += weight;
    }
    std::vector<double> ms;
    for (int r = 0; r < kRepeats; ++r) {
      const int64_t t0 = NowNs();
      std::vector<double> w = ForwardHaar(dense);
      KeepAlive(w[0]);
      ms.push_back(MsSince(t0));
    }
    out->Set("wavelet.dense_haar_ms", Median(ms), "ms");
  }
}

void ProbeSketch(const Dataset& dataset, const BuildOptions& options,
                 Tracer* tracer, MetricSet* out) {
  const DatasetInfo& info = dataset.info();
  const uint64_t splits = std::min(info.num_splits, kSketchSplits);
  std::vector<SparseVector> local;
  for (uint64_t j = 0; j < splits; ++j) {
    local.push_back(ToSparseVector(BuildSplitFrequencyMap(dataset, j)));
  }
  WaveletGcsOptions gcs = options.gcs;
  gcs.seed = Mix64(options.seed);

  std::vector<WaveletGcs> sketches;
  {
    Tracer::Scope span(tracer, "sketch.update");
    uint64_t items = 0;
    const int64_t t0 = NowNs();
    for (const SparseVector& v : local) {
      sketches.emplace_back(info.domain_size, gcs);
      for (const auto& [key, count] : v) sketches.back().UpdateData(key, count);
      items += v.size();
    }
    out->Set("sketch.update_items_per_s",
             static_cast<double>(items) / (MsSince(t0) * 1e-3), "1/s");
  }

  WaveletGcs merged(info.domain_size, gcs);
  {
    // One Merge per split of the dataset, as Send-Sketch's reducer absorbs
    // one sketch per map task.
    Tracer::Scope span(tracer, "sketch.merge");
    const int64_t t0 = NowNs();
    for (uint64_t j = 0; j < info.num_splits; ++j) {
      merged.Merge(sketches[j % sketches.size()]);
    }
    out->Set("sketch.merge_ms", MsSince(t0), "ms");
  }

  {
    Tracer::Scope span(tracer, "sketch.topk");
    const int64_t t0 = NowNs();
    std::vector<WCoeff> top = merged.FindTopK(options.k);
    KeepAlive(top.size());
    out->Set("sketch.topk_ms", MsSince(t0), "ms");
  }
  out->Set("core.simd_tier", static_cast<double>(SimdK().tier), "tier");
}

bool ProbeShuffleAndSpill(const Dataset& dataset, Tracer* tracer,
                          MetricSet* out) {
  using Run = ShuffleRun<uint64_t, uint64_t>;
  const DatasetInfo& info = dataset.info();
  const uint64_t splits = std::min(info.num_splits, kShuffleSplits);
  std::vector<Run> pristine(splits);
  uint64_t ordinal = 0;
  for (uint64_t j = 0; j < splits; ++j) {
    pristine[j].Reserve(dataset.SplitRecords(j));
    ForEachKeyBatch(dataset, j, [&](const uint64_t* keys, uint64_t n) {
      for (uint64_t i = 0; i < n; ++i) pristine[j].Append(keys[i], ordinal++);
    });
  }
  const double pairs = static_cast<double>(ordinal);

  std::vector<Run> runs;
  {
    Tracer::Scope span(tracer, "mapreduce.run_sort");
    std::vector<double> ms;
    for (int r = 0; r < kRepeats; ++r) {
      runs = pristine;
      const int64_t t0 = NowNs();
      for (Run& run : runs) run.SortByKey();
      ms.push_back(MsSince(t0));
    }
    out->Set("mapreduce.run_sort_pairs_per_s", pairs / (Median(ms) * 1e-3),
             "1/s");
  }

  uint64_t resident = 0;
  {
    Tracer::Scope span(tracer, "mapreduce.merge");
    std::vector<double> ms;
    for (int r = 0; r < kRepeats; ++r) {
      const int64_t t0 = NowNs();
      RunMerger<uint64_t, uint64_t> merger(runs);
      uint64_t checksum = 0;
      merger.Drain([&checksum](const uint64_t& k, const uint64_t& v) {
        checksum = Fold(checksum, k, v);
      });
      ms.push_back(MsSince(t0));
      resident = checksum;
    }
    out->Set("mapreduce.merge_pairs_per_s", pairs / (Median(ms) * 1e-3), "1/s");
  }

  SpillDir dir;
  std::vector<SpillFileInfo> files(runs.size());
  bool ok = true;
  {
    Tracer::Scope span(tracer, "mapreduce.spill_write");
    uint64_t bytes = 0;
    const int64_t t0 = NowNs();
    for (size_t r = 0; r < runs.size(); ++r) {
      SpillFileInfo& f = files[r];
      f.path = dir.NextFilePath("probe");
      f.num_pairs = runs[r].size();
      if (!runs[r].empty()) {
        f.min_key = runs[r].keys.front();
        f.max_key = runs[r].keys.back();
      }
      const SpillWriteResult w = WriteSpillFile<uint64_t, uint64_t>(
          f.path, runs[r].keys.data(), runs[r].values.data(), runs[r].size());
      ok = ok && w.io.ok();
      f.file_bytes = w.file_bytes;
      bytes += w.file_bytes;
    }
    out->Set("mapreduce.spill_write_mb_per_s",
             static_cast<double>(bytes) * 1e-6 / (MsSince(t0) * 1e-3), "MB/s");
  }

  {
    Tracer::Scope span(tracer, "mapreduce.spill_merge");
    const int64_t t0 = NowNs();
    std::vector<std::unique_ptr<FileRunCursor<uint64_t, uint64_t>>> cursors;
    std::vector<MergeInput<uint64_t, uint64_t>> inputs;
    for (size_t r = 0; r < files.size() && ok; ++r) {
      auto cursor = FileRunCursor<uint64_t, uint64_t>::Create(
          files[r], 0, files[r].num_pairs);
      if (!cursor.ok()) {
        ok = false;
        break;
      }
      cursors.push_back(std::move(*cursor));
      inputs.push_back(MergeInput<uint64_t, uint64_t>{
          nullptr, nullptr, 0, cursors.back().get(), static_cast<uint32_t>(r)});
    }
    uint64_t checksum = 0;
    if (ok) {
      RunMerger<uint64_t, uint64_t> merger(inputs);
      merger.Drain([&checksum](const uint64_t& k, const uint64_t& v) {
        checksum = Fold(checksum, k, v);
      });
    }
    out->Set("mapreduce.spill_merge_pairs_per_s", pairs / (MsSince(t0) * 1e-3),
             "1/s");
    ok = ok && checksum == resident;
  }

  {
    Tracer::Scope span(tracer, "core.crc32c");
    std::vector<double> ms;
    uint64_t bytes = 0;
    for (int r = 0; r < kRepeats; ++r) {
      bytes = 0;
      const int64_t t0 = NowNs();
      uint32_t crc = 0;
      for (const Run& run : runs) {
        crc = Crc32cExtend(crc, run.keys.data(), run.size() * sizeof(uint64_t));
        bytes += run.size() * sizeof(uint64_t);
      }
      KeepAlive(crc);
      ms.push_back(MsSince(t0));
    }
    out->Set("core.crc32c_mb_per_s",
             static_cast<double>(bytes) * 1e-6 / (Median(ms) * 1e-3), "MB/s");
  }
  return ok;
}

void ProbeServeInProcess(std::shared_ptr<const HistogramSnapshot> snapshot,
                         uint64_t seed, Tracer* tracer, MetricSet* out) {
  constexpr size_t kQueries = 20000;
  constexpr int kPublishes = 64;
  Rng rng(Mix64(seed ^ 0x696e70726f63ULL));
  std::vector<std::string> payloads;
  payloads.reserve(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    payloads.push_back(
        EncodeRequest(RandomQuery(&rng, snapshot->domain_size())));
  }

  SnapshotRegistry registry;
  {
    Tracer::Scope span(tracer, "serve.publish");
    std::vector<double> us;
    for (int i = 0; i < kPublishes; ++i) {
      const int64_t t0 = NowNs();
      registry.Publish(snapshot);
      us.push_back(MsSince(t0) * 1e3);
    }
    out->Set("serve.publish_us", Median(us), "us");
  }

  std::vector<QueryRequest> requests;
  requests.reserve(kQueries);
  {
    Tracer::Scope span(tracer, "serve.decode");
    const int64_t t0 = NowNs();
    for (const std::string& p : payloads) requests.push_back(*DecodeRequest(p));
    out->Set("serve.decode_ns", MsSince(t0) * 1e6 / kQueries, "ns");
  }
  {
    Tracer::Scope span(tracer, "serve.acquire");
    uint64_t versions = 0;
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < kQueries; ++i) {
      versions += registry.Acquire().version();
    }
    KeepAlive(versions);
    out->Set("serve.acquire_ns", MsSince(t0) * 1e6 / kQueries, "ns");
  }

  // Answer every request once per op kind, then encode every answer.
  std::vector<double> estimates(kQueries, 0.0);
  std::vector<std::vector<WCoeff>> tops(kQueries);
  const HistogramSnapshot& snap = *snapshot;
  auto time_op = [&](QueryOp op, const char* span_name, const char* metric) {
    Tracer::Scope span(tracer, span_name);
    size_t count = 0;
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < kQueries; ++i) {
      const QueryRequest& q = requests[i];
      if (q.op != op) continue;
      ++count;
      if (op == QueryOp::kPoint) {
        estimates[i] = PointEstimate(snap, q.point_x);
      } else if (op == QueryOp::kRange) {
        estimates[i] = RangeSum(snap, q.range_lo, q.range_hi);
      } else {
        tops[i] = snap.TopCoefficients(q.topk_count);
      }
    }
    out->Set(metric,
             MsSince(t0) * 1e6 /
                 static_cast<double>(std::max<size_t>(count, 1)),
             "ns");
  };
  time_op(QueryOp::kPoint, "serve.point", "serve.point_ns");
  time_op(QueryOp::kRange, "serve.range", "serve.range_ns");
  time_op(QueryOp::kTopK, "serve.topk", "serve.topk_ns");
  {
    Tracer::Scope span(tracer, "serve.encode");
    size_t bytes = 0;
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < kQueries; ++i) {
      bytes += requests[i].op == QueryOp::kTopK
                   ? EncodeTopKResponse(tops[i], 1).size()
                   : EncodeEstimateResponse(estimates[i], 1).size();
    }
    KeepAlive(bytes);
    out->Set("serve.encode_ns", MsSince(t0) * 1e6 / kQueries, "ns");
  }

  {
    // The whole per-query path a server worker runs, one query at a time.
    Tracer::Scope span(tracer, "serve.inproc");
    std::vector<double> us;
    us.reserve(kQueries);
    size_t bytes = 0;
    for (const std::string& p : payloads) {
      const int64_t t0 = NowNs();
      const QueryRequest q = *DecodeRequest(p);
      SnapshotRegistry::ReadGuard guard = registry.Acquire();
      std::string response;
      if (q.op == QueryOp::kPoint) {
        response = EncodeEstimateResponse(PointEstimate(*guard, q.point_x),
                                          guard.version());
      } else if (q.op == QueryOp::kRange) {
        response = EncodeEstimateResponse(
            RangeSum(*guard, q.range_lo, q.range_hi), guard.version());
      } else {
        response = EncodeTopKResponse(guard->TopCoefficients(q.topk_count),
                                      guard.version());
      }
      bytes += WrapFrame(response).size();
      us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    }
    KeepAlive(bytes);
    out->Set("serve.inproc_us_p50", Median(std::move(us)), "us");
  }
}

}  // namespace perfbench
}  // namespace wavemr
