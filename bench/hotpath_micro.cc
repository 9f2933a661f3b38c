// Micro-benchmarks for the data-plane kernels this repo's map phase is made
// of, self-timed with std::chrono so they run without Google Benchmark:
//
//   scan        per-key std::function ScanSplit vs batched ReadKeys chunks,
//               on generated (cold) and materialized (warm) Zipf data;
//   count       std::unordered_map vs FlatHashCounter frequency counting;
//   gcs         scalar GroupCountSketch::Update vs the batched kernel
//               (UpdateBatch), plus the full WaveletGcs::UpdateData path;
//   shuffle     the sorted-shuffle driver path: pair-vector global
//               stable_sort vs columnar per-run radix sort + loser-tree
//               merge (mapreduce/shuffle.h), plus the merge-only
//               comparison of per-pair replay vs block-wise delivery;
//   extmerge    the external shuffle: the same k-way merge over resident
//               runs vs runs spilled to temp files and streamed back
//               through FileRunCursor (mapreduce/spill.h).
//
// Each kernel prints rows of (variant, items/sec, speedup vs the first
// variant). Checksums keep the optimizer honest and double as a cheap
// equivalence check between variants. --json=PATH additionally writes every
// row as a JSON array (the perf-smoke CI job uploads it next to
// BENCH_ci.json).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/flat_hash.h"
#include "data/dataset.h"
#include "sketch/group_count_sketch.h"
#include "sketch/wavelet_gcs.h"
#include "common/bench_common.h"

namespace wavemr {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Row {
  std::string variant;
  double items_per_sec = 0.0;
  uint64_t checksum = 0;
};

/// Every printed row, retained for --json output.
std::vector<std::pair<std::string, Row>> g_all_rows;

void PrintRows(const char* kernel, const std::vector<Row>& rows) {
  for (const Row& r : rows) g_all_rows.emplace_back(kernel, r);
  Table table(std::string("hotpath: ") + kernel,
              {"variant", "items/s", "speedup", "checksum"});
  for (const Row& r : rows) {
    char sp[32];
    std::snprintf(sp, sizeof(sp), "%.2fx",
                  rows[0].items_per_sec > 0 ? r.items_per_sec / rows[0].items_per_sec
                                            : 0.0);
    char cs[32];
    std::snprintf(cs, sizeof(cs), "%llx",
                  static_cast<unsigned long long>(r.checksum));
    table.AddRow({r.variant, FmtSci(r.items_per_sec), sp, cs});
  }
  table.Print();
}

// ------------------------------------------------------------------- scan

void BenchScan(uint64_t n) {
  ZipfDatasetOptions opt;
  opt.num_records = n;
  opt.domain_size = 1 << 17;
  opt.num_splits = 16;
  opt.cache_keys = false;
  ZipfDataset cold(opt);
  opt.cache_keys = true;
  ZipfDataset warm(opt);
  // Materialize outside the timed region.
  for (uint64_t j = 0; j < opt.num_splits; ++j) {
    uint64_t sink[1];
    warm.ReadKeys(j, 0, sink, 1);
  }

  auto per_key = [&](const Dataset& ds) {
    uint64_t sum = 0;
    for (uint64_t j = 0; j < opt.num_splits; ++j) {
      ds.ScanSplit(j, [&sum](uint64_t k) { sum += k; });
    }
    return sum;
  };
  auto batched = [&](const Dataset& ds) {
    uint64_t sum = 0;
    uint64_t buffer[2048];
    for (uint64_t j = 0; j < opt.num_splits; ++j) {
      uint64_t start = 0;
      for (;;) {
        uint64_t got = ds.ReadKeys(j, start, buffer, 2048);
        if (got == 0) break;
        for (uint64_t i = 0; i < got; ++i) sum += buffer[i];
        start += got;
      }
    }
    return sum;
  };

  std::vector<Row> rows;
  auto time_one = [&](const char* name, const Dataset& ds, auto&& fn) {
    auto t0 = Clock::now();
    uint64_t sum = fn(ds);
    double s = SecondsSince(t0);
    rows.push_back({name, static_cast<double>(n) / s, sum});
  };
  time_one("generate + per-key fn", cold, per_key);
  time_one("generate + batched", cold, batched);
  time_one("cached + per-key fn", warm, per_key);
  time_one("cached + batched", warm, batched);
  PrintRows("sequential scan", rows);
}

// ------------------------------------------------------------------ count

void BenchCount(uint64_t n) {
  // Count a realistic key stream (materialized Zipf keys).
  ZipfDatasetOptions opt;
  opt.num_records = n;
  opt.domain_size = 1 << 17;
  opt.num_splits = 1;
  ZipfDataset ds(opt);
  std::vector<uint64_t> keys(n);
  ds.ReadKeys(0, 0, keys.data(), n);

  std::vector<Row> rows;
  {
    auto t0 = Clock::now();
    std::unordered_map<uint64_t, uint64_t> freq;
    for (uint64_t k : keys) ++freq[k];
    double s = SecondsSince(t0);
    rows.push_back({"std::unordered_map", static_cast<double>(n) / s, freq.size()});
  }
  {
    auto t0 = Clock::now();
    std::unordered_map<uint64_t, uint64_t> freq;
    freq.reserve(opt.domain_size);
    for (uint64_t k : keys) ++freq[k];
    double s = SecondsSince(t0);
    rows.push_back(
        {"std::unordered_map+reserve", static_cast<double>(n) / s, freq.size()});
  }
  {
    auto t0 = Clock::now();
    FlatHashCounter<uint64_t, uint64_t> freq;
    for (uint64_t k : keys) ++freq[k];
    double s = SecondsSince(t0);
    rows.push_back({"FlatHashCounter", static_cast<double>(n) / s, freq.size()});
  }
  {
    auto t0 = Clock::now();
    FlatHashCounter<uint64_t, uint64_t> freq;
    freq.reserve(opt.domain_size);
    for (uint64_t k : keys) ++freq[k];
    double s = SecondsSince(t0);
    rows.push_back(
        {"FlatHashCounter+reserve", static_cast<double>(n) / s, freq.size()});
  }
  PrintRows("frequency counting", rows);
}

// -------------------------------------------------------------------- gcs

void BenchGcs(uint64_t n) {
  const uint64_t u = 1 << 17;
  std::vector<uint64_t> items;
  std::vector<double> values;
  items.reserve(n);
  values.reserve(n);
  // The wavelet hierarchy's natural workload: sorted coefficient indices.
  for (uint64_t i = 0; i < n; ++i) {
    items.push_back((i * 2654435761u) % u);
    values.push_back(1.0 + static_cast<double>(i % 16));
  }
  // Sorted variant: same (item, value) pairs, ascending item order.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&items](size_t a, size_t b) { return items[a] < items[b]; });
  std::vector<uint64_t> sorted_items(n);
  std::vector<double> sorted_values(n);
  for (size_t i = 0; i < n; ++i) {
    sorted_items[i] = items[order[i]];
    sorted_values[i] = values[order[i]];
  }

  std::vector<Row> rows;
  {
    GroupCountSketch sketch(5, 3, 512, 8);
    auto t0 = Clock::now();
    for (uint64_t i = 0; i < n; ++i) {
      sketch.Update(items[i] >> 3, items[i], values[i]);
    }
    double s = SecondsSince(t0);
    rows.push_back({"scalar Update", static_cast<double>(n) / s,
                    sketch.NonzeroCounters()});
  }
  {
    GroupCountSketch sketch(5, 3, 512, 8);
    auto t0 = Clock::now();
    sketch.UpdateBatch(items.data(), values.data(), n, 3);
    double s = SecondsSince(t0);
    rows.push_back({"UpdateBatch (unsorted)", static_cast<double>(n) / s,
                    sketch.NonzeroCounters()});
  }
  {
    GroupCountSketch sketch(5, 3, 512, 8);
    auto t0 = Clock::now();
    sketch.UpdateBatch(sorted_items.data(), sorted_values.data(), n, 3);
    double s = SecondsSince(t0);
    rows.push_back({"UpdateBatch (sorted)", static_cast<double>(n) / s,
                    sketch.NonzeroCounters()});
  }
  PrintRows("GCS update kernel", rows);

  // Dispatch-tier comparison (core/simd.h): the isolated per-item hash
  // kernel and the full UpdateBatch, forced-scalar vs the best tier this
  // host can run. Checksums must match within each pair -- the tiers promise
  // bit-identical results. This is the table the perf-smoke gate records as
  // "gcs-update-kernel" in ci_baseline.json.
  GcsUpdateKernelOptions kopt;
  kopt.total_items = n;
  GcsUpdateKernelResult kr = RunGcsUpdateKernel(kopt);
  const std::string tier = SimdTierName(kr.tier);
  std::vector<Row> krows;
  krows.push_back({"hash block, scalar tier", kr.scalar_hash_items_per_sec,
                   kr.scalar_hash_checksum});
  krows.push_back({"hash block, " + tier + " tier", kr.simd_hash_items_per_sec,
                   kr.simd_hash_checksum});
  PrintRows("gcs-update-kernel (items/s)", krows);
  std::vector<Row> urows;
  urows.push_back({"UpdateBatch, scalar tier", kr.scalar_update_items_per_sec,
                   kr.scalar_update_checksum});
  urows.push_back({"UpdateBatch, " + tier + " tier",
                   kr.simd_update_items_per_sec, kr.simd_update_checksum});
  PrintRows("gcs UpdateBatch by tier (items/s)", urows);

  // Full hierarchical tracker: one UpdateData is log2(u)+1 coefficient
  // updates through every level.
  const uint64_t points = n / 64;
  WaveletGcsOptions gopt;
  gopt.seed = 5;
  gopt.total_bytes = 20480ull * 17;
  WaveletGcs tracker(u, gopt);
  auto t0 = Clock::now();
  for (uint64_t i = 0; i < points; ++i) {
    tracker.UpdateData(items[i], values[i]);
  }
  double s = SecondsSince(t0);
  std::vector<Row> grows;
  grows.push_back({"WaveletGcs::UpdateData", static_cast<double>(points) / s,
                   tracker.NonzeroCounters()});
  PrintRows("hierarchical tracker (points/s)", grows);
}

// ---------------------------------------------------------------- shuffle

void BenchShuffle(uint64_t n) {
  ShuffleKernelOptions opt;
  opt.total_pairs = n;
  ShuffleKernelResult r = RunShuffleMergeKernel(opt);
  std::vector<Row> rows;
  rows.push_back({"pair-vector stable_sort", r.pair_vector_pairs_per_sec,
                  r.pair_vector_checksum});
  rows.push_back({"columnar radix + loser-tree", r.columnar_pairs_per_sec,
                  r.columnar_checksum});
  PrintRows("shuffle merge (pairs/s)", rows);

  std::vector<Row> mrows;
  mrows.push_back({"merge-only per-pair replay", r.merge_per_pair_pairs_per_sec,
                   r.merge_per_pair_checksum});
  mrows.push_back({"merge-only block-wise", r.merge_blockwise_pairs_per_sec,
                   r.merge_blockwise_checksum});
  PrintRows("merge delivery, uniform keys (pairs/s)", mrows);

  // The skewed counterpart: every run owns a contiguous key slice, so one
  // run wins the merge for a long streak and block delivery collapses the
  // per-pair tree walks into bulk copies.
  opt.disjoint_runs = true;
  ShuffleKernelResult d = RunShuffleMergeKernel(opt);
  std::vector<Row> drows;
  drows.push_back({"merge-only per-pair replay", d.merge_per_pair_pairs_per_sec,
                   d.merge_per_pair_checksum});
  drows.push_back({"merge-only block-wise", d.merge_blockwise_pairs_per_sec,
                   d.merge_blockwise_checksum});
  PrintRows("merge delivery, run-disjoint keys (pairs/s)", drows);
}

// ----------------------------------------------------------- external merge

void BenchExternalMerge(uint64_t n) {
  ExternalMergeKernelOptions opt;
  opt.total_pairs = n;
  ExternalMergeKernelResult r = RunExternalMergeKernel(opt);
  std::vector<Row> rows;
  rows.push_back({"resident runs", r.resident_pairs_per_sec, r.resident_checksum});
  rows.push_back({"file-backed runs", r.external_pairs_per_sec,
                  r.external_checksum});
  PrintRows("external merge (pairs/s)", rows);
}

bool WriteJson(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << "[\n";
  for (size_t i = 0; i < g_all_rows.size(); ++i) {
    const auto& [kernel, row] = g_all_rows[i];
    out << "  {\"kernel\": \"" << kernel << "\", \"variant\": \"" << row.variant
        << "\", \"items_per_sec\": " << row.items_per_sec << ", \"checksum\": "
        << row.checksum << "}" << (i + 1 < g_all_rows.size() ? "," : "") << "\n";
  }
  out << "]\n";
  return static_cast<bool>(out);
}

int Main(int argc, char** argv) {
  uint64_t n = 1 << 21;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--n=", 4) == 0) {
      n = std::strtoull(argv[i] + 4, nullptr, 10);
    } else if (argv[i][0] != '-') {
      n = std::strtoull(argv[i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: bench_hotpath_micro [N | --n=N] [--json=PATH]\n");
      return 2;
    }
  }
  std::printf("hotpath micro-benchmarks over n=%llu items\n",
              static_cast<unsigned long long>(n));
  BenchScan(n);
  BenchCount(n);
  BenchGcs(n);
  BenchShuffle(n);
  BenchExternalMerge(n);
  if (!json_path.empty()) {
    if (!WriteJson(json_path)) return 1;
    std::printf("wrote %s (%zu rows)\n", json_path.c_str(), g_all_rows.size());
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace wavemr

int main(int argc, char** argv) { return wavemr::bench::Main(argc, argv); }
