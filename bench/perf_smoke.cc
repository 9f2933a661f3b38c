// Perf-smoke driver for CI: runs one representative algorithm from each
// layer (Send-V, H-WTopk, TwoLevel-S, Send-Sketch) at 1 thread and at N
// threads over the WAVEMR_SCALE default workload, writes every run as a
// BENCH_<name>.json record, and enforces two gates:
//
//   * determinism: simulated seconds and shuffle bytes must be identical at
//     1 and N threads (they are functions of the data, not the schedule);
//   * performance: with --baseline=FILE, the N-thread wall-clock per
//     algorithm must not exceed the baseline's by more than --tolerance
//     (default 15%); the 1-thread map throughput (records/sec) must not
//     fall below the baseline's threads==1 map_records_per_sec by more than
//     --rps-tolerance (default 15%); with --min-speedup=F, the map-phase
//     speedup of N threads over 1 must reach F;
//   * shuffle kernel: when the baseline has a "shuffle-merge-kernel"
//     record, the columnar sort+merge path must deliver at least
//     min_speedup x the pair-vector reference measured in the same
//     process, and at least pairs_per_sec (minus --rps-tolerance), with
//     equal checksums between the two paths;
//   * merge delivery: when the baseline has a "blockwise-merge" record,
//     RunMerger's block-wise drain must reach min_speedup x the per-pair
//     replay reference on the same pre-sorted runs (parity by design on
//     this uniform-key kernel; the baseline floor is 0.95 to absorb timer
//     noise);
//   * external merge: when the baseline has an "external-merge-kernel"
//     record, merging file-backed (spilled) runs must deliver at least
//     pairs_per_sec (minus --rps-tolerance) and reproduce the resident
//     merge's checksum exactly;
//   * gcs update kernel: when the baseline has a "gcs-update-kernel"
//     record, the SIMD-dispatched per-item hash kernel (core/simd.h) must
//     deliver at least items_per_sec (minus --rps-tolerance) and match the
//     forced-scalar tier's checksums exactly, and -- on hosts where a
//     vector tier is available -- beat the scalar tier by the record's
//     min_speedup (scalar-only hosts report instead of gating, like the
//     single-core skew-reduce case);
//   * skew reduce: when the baseline has a "skew-reduce" record, Send-V
//     without a combiner over Zipf s=1.2 keys (per-record pairs, forced
//     sorted shuffle, a buffer small enough to force spills) must keep the
//     equi-depth per-range pair spread (max/min) at or below the record's
//     max_spread at --reduce-tasks 8, stay bit-deterministic between
//     reduce-tasks 1 and 8, and -- on multi-core hosts -- cut the reduce
//     wall by at least the record's min_speedup going from 1 to 8 tasks.
//
// The dataset's key cache is warmed before timing, so map phases measure
// the steady-state read path (memory-speed scans), not first-touch
// generation of the synthetic data.
//
// Exit code 0 = all gates passed, 1 = a gate failed, 2 = bad usage.
#include <chrono>
#include <cstdio>
#include <thread>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/bench_common.h"
#include "core/thread_pool.h"

namespace wavemr {
namespace bench {
namespace {

struct SmokeOptions {
  int threads = 0;  // N for the parallel runs; 0 = hardware concurrency
  std::string name = "ci";
  std::string out;  // explicit output path; empty = BENCH_<name>.json
  std::string baseline;
  double tolerance = 0.15;
  double rps_tolerance = 0.15;
  double min_speedup = 0.0;  // 0 = report only
};

bool ParseFlag(const char* arg, const char* flag, std::string* out) {
  std::string prefix = std::string("--") + flag + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *out = arg + prefix.size();
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_perf_smoke [--threads=N] [--name=ci] [--out=PATH]\n"
               "         [--baseline=FILE] [--tolerance=0.15]\n"
               "         [--rps-tolerance=0.15] [--min-speedup=F]\n");
  return 2;
}

int Main(int argc, char** argv) {
  SmokeOptions opt;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "threads", &v)) {
      opt.threads = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "name", &v)) {
      opt.name = v;
    } else if (ParseFlag(argv[i], "out", &v)) {
      opt.out = v;
    } else if (ParseFlag(argv[i], "baseline", &v)) {
      opt.baseline = v;
    } else if (ParseFlag(argv[i], "tolerance", &v)) {
      opt.tolerance = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "rps-tolerance", &v)) {
      opt.rps_tolerance = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "min-speedup", &v)) {
      opt.min_speedup = std::atof(v.c_str());
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return Usage();
    }
  }
  const int n_threads =
      opt.threads <= 0 ? ThreadPool::DefaultThreadCount() : opt.threads;

  BenchDefaults d = BenchDefaults::FromEnv();
  ZipfDataset ds(d.ZipfOptions());

  // One algorithm per layer, plus both exact coefficient shippers (H-WTopk
  // and Send-Coef). Every round streams by default, so the sorted merge path
  // is gated by the kernel and skew-reduce cases below.
  const std::vector<AlgorithmKind> kinds = {
      AlgorithmKind::kSendV, AlgorithmKind::kSendCoef, AlgorithmKind::kHWTopk,
      AlgorithmKind::kTwoLevelS, AlgorithmKind::kSendSketch};

  std::printf("perf-smoke: n=%llu u=%llu m=%llu  threads: 1 vs %d\n",
              static_cast<unsigned long long>(d.n),
              static_cast<unsigned long long>(d.u),
              static_cast<unsigned long long>(d.m), n_threads);

  // Warm the per-split key cache so every timed map phase reads
  // materialized keys (the steady-state an HDFS deployment sees once the
  // input is in the page cache) instead of paying first-touch generation.
  {
    const auto t0 = std::chrono::steady_clock::now();
    uint64_t checksum = 0;
    for (uint64_t j = 0; j < ds.info().num_splits; ++j) {
      ds.ScanSplit(j, [&checksum](uint64_t key) { checksum += key; });
    }
    std::printf("warmed key cache in %.0f ms (checksum %llx)\n",
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count(),
                static_cast<unsigned long long>(checksum));
  }

  BenchJsonReporter reporter(opt.name);
  Table table("perf-smoke (wall-clock, real ms)",
              {"algorithm", "wall@1", "wall@N", "map@1", "map@N", "map speedup",
               "map rec/s@1"});
  bool failed = false;

  std::vector<Measurement> serial_runs;    // one per kind, at 1 thread
  std::vector<Measurement> parallel_runs;  // one per kind, at n_threads
  for (AlgorithmKind kind : kinds) {
    BuildOptions serial_opt = d.Build();
    serial_opt.threads = 1;
    Measurement serial = Run(ds, kind, serial_opt, nullptr);
    reporter.Add(AlgorithmName(kind), d, 1, serial);
    serial_runs.push_back(serial);

    BuildOptions parallel_opt = d.Build();
    parallel_opt.threads = n_threads;
    Measurement parallel = Run(ds, kind, parallel_opt, nullptr);
    reporter.Add(AlgorithmName(kind), d, n_threads, parallel);
    parallel_runs.push_back(parallel);

    // Determinism gate: schedule-independent quantities must match exactly.
    if (serial.shuffle_bytes != parallel.shuffle_bytes ||
        serial.seconds != parallel.seconds) {
      std::fprintf(stderr,
                   "FAIL %s: 1-thread vs %d-thread runs diverge "
                   "(shuffle %llu vs %llu bytes, simulated %.6f vs %.6f s)\n",
                   AlgorithmName(kind), n_threads,
                   static_cast<unsigned long long>(serial.shuffle_bytes),
                   static_cast<unsigned long long>(parallel.shuffle_bytes),
                   serial.seconds, parallel.seconds);
      failed = true;
    }

    double speedup =
        parallel.map_wall_ms > 0 ? serial.map_wall_ms / parallel.map_wall_ms : 0.0;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx", speedup);
    char rps_buf[32];
    std::snprintf(rps_buf, sizeof(rps_buf), "%.3e", serial.MapRecordsPerSec());
    table.AddRow({AlgorithmName(kind), FmtSeconds(serial.wall_ms),
                  FmtSeconds(parallel.wall_ms), FmtSeconds(serial.map_wall_ms),
                  FmtSeconds(parallel.map_wall_ms), buf, rps_buf});
    // A map phase of a few ms (TwoLevel-S samples ~1% of the data) measures
    // scheduler noise, not scalability; gate only phases big enough to time.
    constexpr double kSpeedupGateFloorMs = 100.0;
    if (opt.min_speedup > 0.0 && serial.map_wall_ms >= kSpeedupGateFloorMs &&
        speedup < opt.min_speedup) {
      std::fprintf(stderr, "FAIL %s: map speedup %.2fx below required %.2fx\n",
                   AlgorithmName(kind), speedup, opt.min_speedup);
      failed = true;
    }
  }
  table.Print();

  // Shuffle-merge kernel: both engine generations of the sorted-shuffle
  // driver path over identical runs. Best of three shots per variant keeps
  // the gate off the scheduler-noise floor.
  ShuffleKernelResult kernel;
  for (int shot = 0; shot < 3; ++shot) {
    ShuffleKernelResult r = RunShuffleMergeKernel(ShuffleKernelOptions{});
    if (r.columnar_pairs_per_sec > kernel.columnar_pairs_per_sec) {
      kernel.columnar_pairs_per_sec = r.columnar_pairs_per_sec;
    }
    if (r.pair_vector_pairs_per_sec > kernel.pair_vector_pairs_per_sec) {
      kernel.pair_vector_pairs_per_sec = r.pair_vector_pairs_per_sec;
    }
    if (r.merge_blockwise_pairs_per_sec > kernel.merge_blockwise_pairs_per_sec) {
      kernel.merge_blockwise_pairs_per_sec = r.merge_blockwise_pairs_per_sec;
    }
    if (r.merge_per_pair_pairs_per_sec > kernel.merge_per_pair_pairs_per_sec) {
      kernel.merge_per_pair_pairs_per_sec = r.merge_per_pair_pairs_per_sec;
    }
    kernel.pair_vector_checksum = r.pair_vector_checksum;
    kernel.columnar_checksum = r.columnar_checksum;
    kernel.merge_blockwise_checksum = r.merge_blockwise_checksum;
    kernel.merge_per_pair_checksum = r.merge_per_pair_checksum;
    if (r.columnar_checksum != r.pair_vector_checksum) break;
  }
  std::printf(
      "shuffle-merge kernel: columnar %.3e pairs/s, pair-vector %.3e pairs/s "
      "(%.2fx)\n",
      kernel.columnar_pairs_per_sec, kernel.pair_vector_pairs_per_sec,
      kernel.Speedup());
  if (kernel.columnar_checksum != kernel.pair_vector_checksum) {
    std::fprintf(stderr,
                 "FAIL shuffle-merge-kernel: columnar checksum %llx != "
                 "pair-vector checksum %llx\n",
                 static_cast<unsigned long long>(kernel.columnar_checksum),
                 static_cast<unsigned long long>(kernel.pair_vector_checksum));
    failed = true;
  }
  {
    BenchRecord kr;
    kr.algorithm = "shuffle-merge-kernel";
    kr.threads = 1;
    kr.pairs_per_sec = kernel.columnar_pairs_per_sec;
    reporter.Add(std::move(kr));
  }
  std::printf(
      "merge delivery: block-wise %.3e pairs/s, per-pair %.3e pairs/s (%.2fx)\n",
      kernel.merge_blockwise_pairs_per_sec, kernel.merge_per_pair_pairs_per_sec,
      kernel.BlockwiseSpeedup());
  if (kernel.merge_blockwise_checksum != kernel.merge_per_pair_checksum) {
    std::fprintf(stderr,
                 "FAIL blockwise-merge: block-wise checksum %llx != per-pair "
                 "checksum %llx\n",
                 static_cast<unsigned long long>(kernel.merge_blockwise_checksum),
                 static_cast<unsigned long long>(kernel.merge_per_pair_checksum));
    failed = true;
  }
  {
    BenchRecord kr;
    kr.algorithm = "blockwise-merge";
    kr.threads = 1;
    kr.pairs_per_sec = kernel.merge_blockwise_pairs_per_sec;
    reporter.Add(std::move(kr));
  }

  // External-merge kernel: resident vs file-backed runs through the same
  // loser tree. Best of three shots, like the shuffle kernel.
  ExternalMergeKernelResult ext;
  for (int shot = 0; shot < 3; ++shot) {
    ExternalMergeKernelResult r = RunExternalMergeKernel(ExternalMergeKernelOptions{});
    if (r.external_pairs_per_sec > ext.external_pairs_per_sec) {
      ext.external_pairs_per_sec = r.external_pairs_per_sec;
    }
    if (r.resident_pairs_per_sec > ext.resident_pairs_per_sec) {
      ext.resident_pairs_per_sec = r.resident_pairs_per_sec;
    }
    ext.resident_checksum = r.resident_checksum;
    ext.external_checksum = r.external_checksum;
    if (r.external_checksum != r.resident_checksum) break;
  }
  std::printf(
      "external-merge kernel: file-backed %.3e pairs/s, resident %.3e pairs/s "
      "(%.2fx of resident)\n",
      ext.external_pairs_per_sec, ext.resident_pairs_per_sec,
      ext.resident_pairs_per_sec > 0.0
          ? ext.external_pairs_per_sec / ext.resident_pairs_per_sec
          : 0.0);
  if (ext.external_checksum != ext.resident_checksum) {
    std::fprintf(stderr,
                 "FAIL external-merge-kernel: file-backed checksum %llx != "
                 "resident checksum %llx\n",
                 static_cast<unsigned long long>(ext.external_checksum),
                 static_cast<unsigned long long>(ext.resident_checksum));
    failed = true;
  }
  {
    BenchRecord kr;
    kr.algorithm = "external-merge-kernel";
    kr.threads = 1;
    kr.pairs_per_sec = ext.external_pairs_per_sec;
    reporter.Add(std::move(kr));
  }

  // GCS update kernel: the SIMD dispatch tier vs forced scalar over the
  // same items (core/simd.h). Best of three shots; equal checksums are the
  // bit-identity contract, enforced baseline or not.
  GcsUpdateKernelResult gcs;
  for (int shot = 0; shot < 3; ++shot) {
    GcsUpdateKernelResult r = RunGcsUpdateKernel(GcsUpdateKernelOptions{});
    if (r.simd_hash_items_per_sec > gcs.simd_hash_items_per_sec) {
      gcs.simd_hash_items_per_sec = r.simd_hash_items_per_sec;
    }
    if (r.scalar_hash_items_per_sec > gcs.scalar_hash_items_per_sec) {
      gcs.scalar_hash_items_per_sec = r.scalar_hash_items_per_sec;
    }
    if (r.simd_update_items_per_sec > gcs.simd_update_items_per_sec) {
      gcs.simd_update_items_per_sec = r.simd_update_items_per_sec;
    }
    if (r.scalar_update_items_per_sec > gcs.scalar_update_items_per_sec) {
      gcs.scalar_update_items_per_sec = r.scalar_update_items_per_sec;
    }
    gcs.tier = r.tier;
    gcs.scalar_hash_checksum = r.scalar_hash_checksum;
    gcs.simd_hash_checksum = r.simd_hash_checksum;
    gcs.scalar_update_checksum = r.scalar_update_checksum;
    gcs.simd_update_checksum = r.simd_update_checksum;
    if (r.simd_hash_checksum != r.scalar_hash_checksum ||
        r.simd_update_checksum != r.scalar_update_checksum) {
      break;
    }
  }
  std::printf(
      "gcs-update-kernel: %s hash %.3e items/s, scalar hash %.3e items/s "
      "(%.2fx); UpdateBatch %.3e vs %.3e items/s (%.2fx)\n",
      SimdTierName(gcs.tier), gcs.simd_hash_items_per_sec,
      gcs.scalar_hash_items_per_sec, gcs.HashSpeedup(),
      gcs.simd_update_items_per_sec, gcs.scalar_update_items_per_sec,
      gcs.UpdateSpeedup());
  if (gcs.simd_hash_checksum != gcs.scalar_hash_checksum) {
    std::fprintf(stderr,
                 "FAIL gcs-update-kernel: %s hash checksum %llx != scalar "
                 "checksum %llx\n",
                 SimdTierName(gcs.tier),
                 static_cast<unsigned long long>(gcs.simd_hash_checksum),
                 static_cast<unsigned long long>(gcs.scalar_hash_checksum));
    failed = true;
  }
  if (gcs.simd_update_checksum != gcs.scalar_update_checksum) {
    std::fprintf(stderr,
                 "FAIL gcs-update-kernel: %s UpdateBatch checksum %llx != "
                 "scalar checksum %llx\n",
                 SimdTierName(gcs.tier),
                 static_cast<unsigned long long>(gcs.simd_update_checksum),
                 static_cast<unsigned long long>(gcs.scalar_update_checksum));
    failed = true;
  }
  {
    BenchRecord kr;
    kr.algorithm = "gcs-update-kernel";
    kr.threads = 1;
    kr.items_per_sec = gcs.simd_hash_items_per_sec;
    reporter.Add(std::move(kr));
  }

  // Skew reduce: the equi-depth partitioning proof. Zipf s=1.2 keys,
  // Send-V with the combiner off (one pair per record -- the rawest key
  // skew the engine can see), forced sorted shuffle, and a buffer small
  // enough that the merge runs over spill files. Equal-width key ranges
  // piled nearly every pair into the low range here; rank boundaries hold
  // every range within one pair of n/R, so reduce wall scales with
  // --reduce-tasks on exactly the datasets that used to defeat it.
  BenchDefaults skew_d = d;
  skew_d.alpha = 1.2;
  Measurement skew_r1;
  Measurement skew_r8;
  {
    ZipfDataset skew_ds(skew_d.ZipfOptions());
    {
      uint64_t checksum = 0;
      for (uint64_t j = 0; j < skew_ds.info().num_splits; ++j) {
        skew_ds.ScanSplit(j, [&checksum](uint64_t key) { checksum += key; });
      }
      std::printf("skew-reduce: warmed Zipf s=%.1f keys (checksum %llx)\n",
                  skew_d.alpha, static_cast<unsigned long long>(checksum));
    }
    auto run_skew = [&](int reduce_tasks) {
      BuildOptions o = skew_d.Build();
      o.threads = n_threads;
      o.reduce_tasks = reduce_tasks;
      o.force_sorted_shuffle = true;
      o.send_v_emit_per_record = true;
      o.send_v_disable_combiner = true;
      // ~1/8 of the per-record pair payload: plenty of real spill files.
      o.io.shuffle_buffer_bytes = uint64_t{8} << 20;
      return Run(skew_ds, AlgorithmKind::kSendV, o, nullptr);
    };
    skew_r1 = run_skew(1);
    skew_r8 = run_skew(8);
    auto add_skew_record = [&](int rt, const Measurement& m) {
      BenchRecord sr;
      sr.algorithm = "skew-reduce";
      sr.n = skew_d.n;
      sr.u = skew_d.u;
      sr.m = skew_d.m;
      sr.threads = n_threads;
      sr.reduce_tasks = rt;
      sr.wall_ms = m.wall_ms;
      sr.reduce_wall_ms = m.reduce_wall_ms;
      sr.reduce_range_spread = m.reduce_range_spread;
      sr.shuffle_bytes = m.shuffle_bytes;
      sr.spill_fallbacks = m.spill_fallbacks;
      reporter.Add(std::move(sr));
    };
    add_skew_record(1, skew_r1);
    add_skew_record(8, skew_r8);
    const double skew_speedup = skew_r8.reduce_wall_ms > 0.0
                                    ? skew_r1.reduce_wall_ms / skew_r8.reduce_wall_ms
                                    : 0.0;
    std::printf(
        "skew-reduce: reduce wall %.1f ms @rt=1 vs %.1f ms @rt=8 (%.2fx), "
        "spread %.3f, spill files %llu\n",
        skew_r1.reduce_wall_ms, skew_r8.reduce_wall_ms, skew_speedup,
        skew_r8.reduce_range_spread,
        static_cast<unsigned long long>(skew_r8.spill_files));
    // Hard gates, baseline or not: the skew run must actually spill, and
    // reduce-task count must not change a single result bit.
    if (skew_r8.spill_files == 0) {
      std::fprintf(stderr,
                   "FAIL skew-reduce: expected forced spill, got 0 files\n");
      failed = true;
    }
    // A healthy disk must never take the resident-fallback recovery path;
    // a nonzero count here means spill writes are failing on the CI host.
    if (skew_r1.spill_fallbacks != 0 || skew_r8.spill_fallbacks != 0) {
      std::fprintf(stderr,
                   "FAIL skew-reduce: %llu spill fallbacks on a healthy run\n",
                   static_cast<unsigned long long>(skew_r1.spill_fallbacks +
                                                   skew_r8.spill_fallbacks));
      failed = true;
    }
    if (skew_r1.shuffle_bytes != skew_r8.shuffle_bytes ||
        skew_r1.seconds != skew_r8.seconds) {
      std::fprintf(stderr,
                   "FAIL skew-reduce: rt=1 vs rt=8 runs diverge (shuffle %llu "
                   "vs %llu bytes, simulated %.6f vs %.6f s)\n",
                   static_cast<unsigned long long>(skew_r1.shuffle_bytes),
                   static_cast<unsigned long long>(skew_r8.shuffle_bytes),
                   skew_r1.seconds, skew_r8.seconds);
      failed = true;
    }
  }

  if (!opt.baseline.empty()) {
    std::vector<BenchRecord> baseline;
    if (!ReadBenchJson(opt.baseline, &baseline) || baseline.empty()) {
      std::fprintf(stderr, "cannot read baseline %s (missing or no records)\n",
                   opt.baseline.c_str());
      return 2;
    }
    for (const BenchRecord& b : baseline) {
      if (b.algorithm == "blockwise-merge") {
        if (b.min_speedup > 0.0) {
          if (kernel.BlockwiseSpeedup() < b.min_speedup) {
            std::fprintf(stderr,
                         "FAIL blockwise-merge: %.2fx vs per-pair replay below "
                         "required %.2fx\n",
                         kernel.BlockwiseSpeedup(), b.min_speedup);
            failed = true;
          } else {
            std::printf("ok   blockwise-merge: %.2fx vs per-pair replay "
                        "(need %.2fx)\n",
                        kernel.BlockwiseSpeedup(), b.min_speedup);
          }
        }
        continue;
      }
      if (b.algorithm == "external-merge-kernel") {
        if (b.pairs_per_sec > 0.0) {
          double floor = b.pairs_per_sec * (1.0 - opt.rps_tolerance);
          if (ext.external_pairs_per_sec < floor) {
            std::fprintf(stderr,
                         "FAIL external-merge-kernel: %.3e pairs/s below "
                         "baseline %.3e pairs/s (-%.0f%% tolerance => %.3e)\n",
                         ext.external_pairs_per_sec, b.pairs_per_sec,
                         opt.rps_tolerance * 100.0, floor);
            failed = true;
          } else {
            std::printf("ok   external-merge-kernel: %.3e pairs/s within "
                        "baseline %.3e pairs/s (-%.0f%%)\n",
                        ext.external_pairs_per_sec, b.pairs_per_sec,
                        opt.rps_tolerance * 100.0);
          }
        }
        continue;
      }
      if (b.algorithm == "gcs-update-kernel") {
        if (b.min_speedup > 0.0) {
          // The speedup gate needs a vector tier; a scalar-only host
          // compares the scalar table against itself and can only report.
          if (gcs.tier == SimdTier::kScalar) {
            std::printf("ok   gcs-update-kernel: %.2fx hash speedup not gated "
                        "on a scalar-only host\n",
                        gcs.HashSpeedup());
          } else if (gcs.HashSpeedup() < b.min_speedup) {
            std::fprintf(stderr,
                         "FAIL gcs-update-kernel: %s tier %.2fx vs scalar "
                         "below required %.2fx\n",
                         SimdTierName(gcs.tier), gcs.HashSpeedup(),
                         b.min_speedup);
            failed = true;
          } else {
            std::printf("ok   gcs-update-kernel: %s tier %.2fx vs scalar "
                        "(need %.2fx)\n",
                        SimdTierName(gcs.tier), gcs.HashSpeedup(),
                        b.min_speedup);
          }
        }
        if (b.items_per_sec > 0.0) {
          double floor = b.items_per_sec * (1.0 - opt.rps_tolerance);
          if (gcs.simd_hash_items_per_sec < floor) {
            std::fprintf(stderr,
                         "FAIL gcs-update-kernel: %.3e items/s below baseline "
                         "%.3e items/s (-%.0f%% tolerance => %.3e)\n",
                         gcs.simd_hash_items_per_sec, b.items_per_sec,
                         opt.rps_tolerance * 100.0, floor);
            failed = true;
          } else {
            std::printf("ok   gcs-update-kernel: %.3e items/s within baseline "
                        "%.3e items/s (-%.0f%%)\n",
                        gcs.simd_hash_items_per_sec, b.items_per_sec,
                        opt.rps_tolerance * 100.0);
          }
        }
        continue;
      }
      if (b.algorithm == "skew-reduce") {
        if (b.max_spread > 0.0) {
          if (skew_r8.reduce_range_spread <= 0.0 ||
              skew_r8.reduce_range_spread > b.max_spread) {
            std::fprintf(stderr,
                         "FAIL skew-reduce: per-range spread %.3f at rt=8 "
                         "outside (0, %.2f]\n",
                         skew_r8.reduce_range_spread, b.max_spread);
            failed = true;
          } else {
            std::printf("ok   skew-reduce: per-range spread %.3f at rt=8 "
                        "(max %.2f)\n",
                        skew_r8.reduce_range_spread, b.max_spread);
          }
        }
        if (b.min_speedup > 0.0) {
          const double got = skew_r8.reduce_wall_ms > 0.0
                                 ? skew_r1.reduce_wall_ms / skew_r8.reduce_wall_ms
                                 : 0.0;
          // Reduce parallelism needs cores: a single-CPU host (or a
          // --threads=1 run) executes the partitions sequentially and can
          // only report, not gate.
          if (n_threads < 2 || std::thread::hardware_concurrency() < 2) {
            std::printf("ok   skew-reduce: %.2fx reduce speedup not gated at "
                        "%d thread(s), %u core(s)\n",
                        got, n_threads, std::thread::hardware_concurrency());
          } else if (got < b.min_speedup) {
            std::fprintf(stderr,
                         "FAIL skew-reduce: reduce wall speedup %.2fx (rt=1 "
                         "-> rt=8) below required %.2fx\n",
                         got, b.min_speedup);
            failed = true;
          } else {
            std::printf("ok   skew-reduce: reduce wall speedup %.2fx (rt=1 "
                        "-> rt=8, need %.2fx)\n",
                        got, b.min_speedup);
          }
        }
        continue;
      }
      if (b.algorithm != "shuffle-merge-kernel") continue;
      if (b.min_speedup > 0.0) {
        if (kernel.Speedup() < b.min_speedup) {
          std::fprintf(stderr,
                       "FAIL shuffle-merge-kernel: %.2fx vs pair-vector "
                       "reference below required %.2fx\n",
                       kernel.Speedup(), b.min_speedup);
          failed = true;
        } else {
          std::printf("ok   shuffle-merge-kernel: %.2fx vs pair-vector "
                      "reference (need %.2fx)\n",
                      kernel.Speedup(), b.min_speedup);
        }
      }
      if (b.pairs_per_sec > 0.0) {
        double floor = b.pairs_per_sec * (1.0 - opt.rps_tolerance);
        if (kernel.columnar_pairs_per_sec < floor) {
          std::fprintf(stderr,
                       "FAIL shuffle-merge-kernel: %.3e pairs/s below "
                       "baseline %.3e pairs/s (-%.0f%% tolerance => %.3e)\n",
                       kernel.columnar_pairs_per_sec, b.pairs_per_sec,
                       opt.rps_tolerance * 100.0, floor);
          failed = true;
        } else {
          std::printf("ok   shuffle-merge-kernel: %.3e pairs/s within "
                      "baseline %.3e pairs/s (-%.0f%%)\n",
                      kernel.columnar_pairs_per_sec, b.pairs_per_sec,
                      opt.rps_tolerance * 100.0);
        }
      }
    }
    for (size_t i = 0; i < kinds.size(); ++i) {
      const char* algo = AlgorithmName(kinds[i]);
      for (const BenchRecord& b : baseline) {
        if (b.algorithm != algo) continue;
        if (b.threads == 1) {
          // Serial record: the map-throughput floor. Wall-clock is gated on
          // the N-thread record below.
          if (b.map_records_per_sec <= 0.0) continue;
          double floor = b.map_records_per_sec * (1.0 - opt.rps_tolerance);
          double got = serial_runs[i].MapRecordsPerSec();
          if (got < floor) {
            std::fprintf(stderr,
                         "FAIL %s: map throughput %.3e rec/s below baseline "
                         "%.3e rec/s (-%.0f%% tolerance => %.3e)\n",
                         algo, got, b.map_records_per_sec,
                         opt.rps_tolerance * 100.0, floor);
            failed = true;
          } else {
            std::printf("ok   %s: map throughput %.3e rec/s within baseline "
                        "%.3e rec/s (-%.0f%%)\n",
                        algo, got, b.map_records_per_sec,
                        opt.rps_tolerance * 100.0);
          }
          continue;
        }
        if (b.wall_ms <= 0.0) continue;
        double limit = b.wall_ms * (1.0 + opt.tolerance);
        if (parallel_runs[i].wall_ms > limit) {
          std::fprintf(stderr,
                       "FAIL %s: wall %.1f ms exceeds baseline %.1f ms "
                       "(+%.0f%% tolerance => %.1f ms)\n",
                       algo, parallel_runs[i].wall_ms, b.wall_ms,
                       opt.tolerance * 100.0, limit);
          failed = true;
        } else {
          std::printf("ok   %s: wall %.1f ms within baseline %.1f ms (+%.0f%%)\n",
                      algo, parallel_runs[i].wall_ms, b.wall_ms,
                      opt.tolerance * 100.0);
        }
      }
    }
  }

  bool wrote = opt.out.empty() ? reporter.WriteFile() : reporter.WriteFileTo(opt.out);
  if (!wrote) return 1;
  std::printf("wrote %s (%zu records)\n",
              opt.out.empty() ? ("BENCH_" + opt.name + ".json").c_str()
                              : opt.out.c_str(),
              reporter.records().size());
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace bench
}  // namespace wavemr

int main(int argc, char** argv) { return wavemr::bench::Main(argc, argv); }
