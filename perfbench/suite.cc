// The wavemr benchmark: one process per workload, seeded inputs, every
// end-to-end metric printed by name with its unit, and correctness checks
// that fail the run. README.md in this directory explains the workloads and
// the metrics; run.py builds this binary and runs one workload with it.
//
//   perfbench_suite --workload=NAME [--seed=42] [--seconds=15] [--trace=PATH]
//   perfbench_suite --smoke        every workload at 1/32 scale, all checks
//   perfbench_suite --catalog      workload and metric names as JSON
//
// Untraced runs print the end-to-end metrics. --trace=PATH gives the traced
// run instead: spans around the bench's own calls into each layer, written
// to PATH, and the per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/bitops.h"
#include "core/flags.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "data/dataset.h"
#include "data/frequency.h"
#include "histogram/builder.h"
#include "loadgen.h"
#include "probes.h"
#include "report.h"
#include "serve/client.h"
#include "serve/estimator.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "trace.h"
#include "wavelet/histogram.h"
#include "wavelet/topk.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace wavemr {
namespace perfbench {
namespace {

// ------------------------------------------------------------- definitions

// Scaled-down paper defaults, as the figure benches use them (the paper's
// n = 13.4e9 records is reached by scaling cost-model work time by
// 13.4e9 / n). Kept here, not shared with bench/, so that editing the
// figure benches cannot change what this benchmark measures.
constexpr uint64_t kDomain = uint64_t{1} << 17;
constexpr uint64_t kSplits = 64;
constexpr double kPaperRecords = 13.4e9;
constexpr double kEpsilon = 0.0056;
constexpr double kBandwidth = 0.5;
constexpr uint64_t kGcsBytesPerLogU = 2048;
// The algorithms' own randomness (sketch hashes, sampling coins) is part of
// the system's configuration, not of its input: --seed varies the data only.
constexpr uint64_t kBuildSeed = 42;

enum class Mode { kBuild, kServeRead, kServeRebuild };

struct Workload {
  const char* name;
  Mode mode;
  AlgorithmKind algo;
  uint32_t log2_n;
  double alpha;
  size_t k;
  int threads;
  /// Send-V emitting one pair per record with no combiner, every round on
  /// the sorted shuffle, and a shuffle buffer far below the map output.
  bool skew_spill;
};

// Why each workload exists is in README.md; in short: hwtopk = map-side
// wavelet work, sendcoef = in-memory sorted merge, sketch = GCS updates,
// skew-spill = external spill + merge, serve-read = the read path alone,
// serve-rebuild = rebuilds competing with reads.
constexpr Workload kWorkloads[] = {
    // name, mode, algorithm, log2 n, alpha, k, threads, spill
    {"hwtopk", Mode::kBuild, AlgorithmKind::kHWTopk, 22, 1.1, 30, 4, false},
    {"sendcoef", Mode::kBuild, AlgorithmKind::kSendCoef, 22, 1.1, 30, 4, false},
    {"sketch", Mode::kBuild, AlgorithmKind::kSendSketch, 20, 1.1, 30, 4, false},
    {"skew-spill", Mode::kBuild, AlgorithmKind::kSendV, 22, 1.2, 30, 4, true},
    {"serve-read", Mode::kServeRead, AlgorithmKind::kHWTopk, 22, 1.1, 1024, 4,
     false},
    {"serve-rebuild", Mode::kServeRebuild, AlgorithmKind::kHWTopk, 22, 1.1,
     1024, 2, false},
};

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"latency_ms_p50", "ms"}, {"latency_ms_p75", "ms"}, {"comm_bytes", "bytes"},
    {"sim_s", "sim_s"},       {"setup_s", "s"},         {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"mapreduce.map_wall_ms", "ms"},
    {"mapreduce.reduce_wall_ms", "ms"},
    {"histogram.outside_rounds_ms", "ms"},
    {"histogram.sse_ratio", "ratio"},
    {"mapreduce.map_rec_per_s", "1/s"},
    {"mapreduce.map_speedup", "x"},
    {"mapreduce.shuffle_pairs", "count"},
    {"mapreduce.shuffle_bytes", "bytes"},
    {"mapreduce.broadcast_bytes", "bytes"},
    {"mapreduce.combine_ratio", "ratio"},
    {"mapreduce.run_sort_pairs_per_s", "1/s"},
    {"mapreduce.merge_pairs_per_s", "1/s"},
    {"mapreduce.reduce_range_spread", "ratio"},
    {"mapreduce.reduce_steals", "count"},
    {"mapreduce.reduce_speedup", "x"},
    {"mapreduce.spill_files", "count"},
    {"mapreduce.spill_bytes", "bytes"},
    {"mapreduce.spill_read_bytes", "bytes"},
    {"mapreduce.spill_fallbacks", "count"},
    {"mapreduce.spill_retries", "count"},
    {"mapreduce.spill_write_mb_per_s", "MB/s"},
    {"mapreduce.spill_merge_pairs_per_s", "1/s"},
    {"mapreduce.sim_map_s", "sim_s"},
    {"mapreduce.sim_shuffle_s", "sim_s"},
    {"mapreduce.sim_reduce_s", "sim_s"},
    {"mapreduce.sim_spill_s", "sim_s"},
    {"mapreduce.map_ms_per_sim_s", "ms/sim_s"},
    {"mapreduce.reduce_ms_per_sim_s", "ms/sim_s"},
    {"data.generate_s", "s"},
    {"data.scan_rec_per_s", "1/s"},
    {"data.split_freq_ms", "ms"},
    {"wavelet.sparse_haar_ms", "ms"},
    {"wavelet.coeffs_per_split", "count"},
    {"wavelet.dense_haar_ms", "ms"},
    {"sketch.update_items_per_s", "1/s"},
    {"sketch.merge_ms", "ms"},
    {"sketch.topk_ms", "ms"},
    {"core.simd_tier", "tier"},
    {"core.crc32c_mb_per_s", "MB/s"},
    {"serve.decode_ns", "ns"},
    {"serve.acquire_ns", "ns"},
    {"serve.point_ns", "ns"},
    {"serve.range_ns", "ns"},
    {"serve.topk_ns", "ns"},
    {"serve.encode_ns", "ns"},
    {"serve.inproc_us_p50", "us"},
    {"serve.publish_us", "us"},
    {"serve.query_p90_us", "us"},
    {"serve.p99_us", "us"},
    {"serve.p999_us", "us"},
    {"serve.wire_queue_us", "us"},
    {"serve.gen_late_us_p99", "us"},
    {"serve.gen_late_us_max", "us"},
    {"serve.capacity_qps", "1/s"},
    {"serve.rebuild_ms_p50", "ms"},
    {"serve.rebuild_build_ms", "ms"},
    {"histogram.to_snapshot_ms", "ms"},
    {"serve.versions_published", "count"},
    {"serve.queries_served", "count"},
    {"serve.connections_shed", "count"},
    {"serve.idle_disconnects", "count"},
    {"trace_overhead_pct", "%"},
    {"trace.spans", "count"},
};

// Serving parameters. The reference rates are where the end-to-end query
// latencies are read; the ladder finds the rate at which p90 crosses the
// latency limit.
constexpr double kReadRate = 40000.0;
constexpr double kRebuildReadRate = 20000.0;
constexpr double kProbeRate = 20000.0;
constexpr double kLatencyLimitUs = 100.0;
constexpr double kMaxLateP99Us = 1000.0;
constexpr double kLadder[] = {20000,  40000,  80000, 120000,
                              160000, 200000, 240000};
constexpr int kServeWorkers = 2;
constexpr int kReadConnections = 4;
constexpr int kRebuildReadConnections = 3;
constexpr int kRebuildGapMs = 100;

/// Sizes that differ between a measured run and the --smoke self-check.
struct Scale {
  uint32_t shift = 0;          // n >>= shift
  int setups = 3;              // set-ups per run; setup_s is their median
  double warmup_s = 0.3;       // serve warm-up traffic during set-up
  double probe_s = 1.0;        // wire probe in traced build workloads
  double rung_s = 0.3;         // ladder rung in traced probes
  int min_builds = 5;          // timed builds even if the window is shorter
  int serial_builds = 5;       // threads=1 builds in the traced run
  int rt1_builds = 3;          // reduce_tasks=1 builds in the traced run
  int probe_rebuilds = 3;
  int trace_slices = 10;       // alternating untraced/traced serve slices
};

constexpr Scale kFullScale{};
constexpr Scale kSmokeScale{5, 1, 0.02, 0.05, 0.02, 3, 1, 1, 1, 2};

// ------------------------------------------------------------------ run state

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 15.0;
  std::string trace_path;
  bool smoke = false;
  bool catalog = false;
};

/// Everything one workload run accumulates. Build hooks run on server
/// worker threads, so counters are atomic and the rest is mutex-guarded.
struct Run {
  Run(const Workload& w, const Args& a, const Scale& s, bool traced)
      : workload(w), args(a), scale(s), traced(traced), tracer(traced) {}

  const Workload& workload;
  const Args& args;
  const Scale& scale;
  const bool traced;
  Tracer tracer;
  MetricSet e2e;
  MetricSet layer;
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};

  void Check(bool ok, const std::string& what) {
    if (ok) return;
    std::lock_guard<std::mutex> lock(mu);
    failures.push_back(what);
  }
  std::vector<std::string> Failures() {
    std::lock_guard<std::mutex> lock(mu);
    return failures;
  }

  uint64_t n() const { return uint64_t{1} << (workload.log2_n - scale.shift); }

 private:
  std::mutex mu;
  std::vector<std::string> failures;  // guarded by mu
};

BuildOptions OptionsFor(const Run& run) {
  const Workload& w = run.workload;
  BuildOptions o;
  o.k = w.k;
  o.epsilon = kEpsilon;
  o.seed = kBuildSeed;
  o.threads = w.threads;
  o.cost_model.bandwidth_fraction = kBandwidth;
  o.cost_model.time_scale = kPaperRecords / static_cast<double>(run.n());
  o.gcs.total_bytes = kGcsBytesPerLogU * Log2Floor(kDomain);
  if (w.skew_spill) {
    o.force_sorted_shuffle = true;
    o.send_v_emit_per_record = true;
    o.send_v_disable_combiner = true;
    // ~1/8 of the per-record map output: about 56 spill files per build.
    o.io.shuffle_buffer_bytes = (uint64_t{8} << 20) >> run.scale.shift;
  }
  return o;
}

// ---------------------------------------------------------------- builds

/// One build's wall time plus what its RoundStats and counters say.
struct BuildSample {
  double wall_ms = 0.0;
  double map_wall_ms = 0.0;
  double reduce_wall_ms = 0.0;
  double sim_map_s = 0.0, sim_shuffle_s = 0.0, sim_reduce_s = 0.0;
  double sim_spill_s = 0.0, sim_total_s = 0.0;
  uint64_t shuffle_pairs = 0, shuffle_bytes = 0, broadcast_bytes = 0;
  uint64_t map_output_pairs = 0, map_records = 0;
  double range_spread = 0.0;
  uint64_t steals = 0, spill_files = 0, spill_bytes = 0, spill_read_bytes = 0;
  uint64_t spill_fallbacks = 0, spill_retries = 0;
  bool traced = false;

  uint64_t comm_bytes() const { return shuffle_bytes + broadcast_bytes; }
};

BuildSample Summarize(const BuildResult& r, double wall_ms, bool traced) {
  BuildSample s;
  s.wall_ms = wall_ms;
  s.traced = traced;
  for (const RoundStats& round : r.stats.rounds) {
    s.map_wall_ms += round.map_wall_ms;
    s.reduce_wall_ms += round.reduce_wall_ms;
    s.sim_map_s += round.map_makespan_s;
    s.sim_shuffle_s += round.shuffle_s;
    s.sim_reduce_s += round.reduce_s;
    s.sim_spill_s += round.spill_s;
    s.shuffle_pairs += round.shuffle_pairs;
    s.shuffle_bytes += round.shuffle_bytes;
    s.broadcast_bytes += round.broadcast_bytes;
    s.range_spread = std::max(s.range_spread, round.ReduceRangeSpread());
    s.steals += round.reduce_steals;
    s.spill_files += round.spill_files;
    s.spill_bytes += round.spill_bytes;
    s.spill_read_bytes += round.spill_read_bytes;
    s.spill_fallbacks += round.spill_fallbacks;
    s.spill_retries += round.spill_retries;
  }
  s.sim_total_s = r.stats.TotalSeconds();
  s.map_output_pairs = r.stats.counters.Get("map_output_pairs");
  s.map_records = r.stats.counters.Get("map_records_read");
  return s;
}

bool SameSynopsis(const BuildResult& a, const BuildResult& b) {
  const std::vector<WCoeff>& x = a.histogram.coefficients();
  const std::vector<WCoeff>& y = b.histogram.coefficients();
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].index != y[i].index || std::bit_cast<uint64_t>(x[i].value) !=
                                        std::bit_cast<uint64_t>(y[i].value)) {
      return false;
    }
  }
  return true;
}

/// Runs one build inside a "histogram.build" span. When the tracer is on,
/// the rounds' map and reduce phases become derived child spans, laid end
/// to end from the build's start in round order.
struct TimedBuild {
  std::unique_ptr<BuildResult> result;  // null when the build failed
  BuildSample sample;
};

TimedBuild Build(Run* run, const Dataset& dataset,
                 const BuildOptions& options) {
  TimedBuild out;
  const bool traced = run->tracer.enabled();
  Tracer::Scope span(&run->tracer, "histogram.build");
  const int64_t t0 = NowNs();
  StatusOr<BuildResult> r =
      BuildWaveletHistogram(dataset, run->workload.algo, options);
  const double wall_ms = static_cast<double>(NowNs() - t0) * 1e-6;
  run->attempted.fetch_add(1);
  if (!r.ok()) {
    run->failed.fetch_add(1);
    run->Check(false, std::string("build failed: ") + r.status().ToString());
    return out;
  }
  if (traced) {
    int64_t cursor = t0;
    for (const RoundStats& round : r->stats.rounds) {
      const auto map_ns = static_cast<int64_t>(round.map_wall_ms * 1e6);
      const auto reduce_ns = static_cast<int64_t>(round.reduce_wall_ms * 1e6);
      run->tracer.Add("mapreduce.map", span.id(), cursor, cursor + map_ns,
                      /*derived=*/true);
      cursor += map_ns;
      if (reduce_ns > 0) {
        run->tracer.Add("mapreduce.reduce", span.id(), cursor,
                        cursor + reduce_ns, /*derived=*/true);
        cursor += reduce_ns;
      }
    }
  }
  out.sample = Summarize(*r, wall_ms, traced);
  out.result = std::make_unique<BuildResult>(std::move(*r));
  return out;
}

// ----------------------------------------------------------------- set-up

/// What a workload needs before its measured window: the dataset with every
/// split's keys materialized, the true coefficients, the first build (every
/// later build must reproduce it bit for bit) and the best possible SSE.
struct Setup {
  std::unique_ptr<ZipfDataset> dataset;
  std::vector<WCoeff> truth;
  double ideal_sse = 0.0;
  std::unique_ptr<BuildResult> reference;
  BuildSample reference_sample;
  double generate_s = 0.0;
};

std::unique_ptr<Setup> SetUp(Run* run) {
  auto s = std::make_unique<Setup>();
  const Workload& w = run->workload;
  ZipfDatasetOptions data;
  data.num_records = run->n();
  data.domain_size = kDomain;
  data.alpha = w.alpha;
  data.num_splits = kSplits;
  data.seed = run->args.seed;
  s->dataset = std::make_unique<ZipfDataset>(data);
  {
    // Materialize every split's keys on 4 threads, so no timed build pays
    // first-touch generation.
    Tracer::Scope span(&run->tracer, "data.generate");
    const int64_t t0 = NowNs();
    ThreadPool pool(4);
    std::vector<std::future<uint64_t>> touched;
    for (uint64_t j = 0; j < kSplits; ++j) {
      touched.push_back(pool.Submit([&s, j] {
        uint64_t sum = 0;
        ForEachKeyBatch(*s->dataset, j,
                        [&sum](const uint64_t* keys, uint64_t n) {
                          for (uint64_t i = 0; i < n; ++i) sum += keys[i];
                        });
        return sum;
      }));
    }
    for (auto& f : touched) f.get();
    s->generate_s = static_cast<double>(NowNs() - t0) * 1e-9;
  }
  {
    Tracer::Scope span(&run->tracer, "data.truth");
    s->truth = TrueCoefficients(*s->dataset);
    const HistogramSnapshot ideal = HistogramSnapshot::FromCoefficients(
        kDomain, TopKByMagnitude(s->truth, w.k));
    s->ideal_sse = SseAgainstTrueCoefficients(ideal, s->truth);
  }
  TimedBuild first = Build(run, *s->dataset, OptionsFor(*run));
  s->reference = std::move(first.result);
  s->reference_sample = first.sample;
  return s;
}

// ------------------------------------------------------- shared end metrics

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Quality of the synopsis every build of this workload produced, and the
/// threads=1 reference check. Returns the serial builds' samples.
std::vector<BuildSample> CheckSynopsis(Run* run, const Setup& setup,
                                       int serial_builds) {
  const Workload& w = run->workload;
  std::vector<BuildSample> serial;
  if (setup.reference == nullptr) return serial;
  BuildOptions o = OptionsFor(*run);
  o.threads = 1;
  for (int i = 0; i < serial_builds; ++i) {
    TimedBuild b = Build(run, *setup.dataset, o);
    if (b.result == nullptr) continue;
    run->Check(SameSynopsis(*b.result, *setup.reference),
               "threads=1 build differs from the threads=" +
                   std::to_string(w.threads) + " build");
    serial.push_back(b.sample);
  }

  const HistogramSnapshot snap = setup.reference->ToSnapshot();
  const double sse = SseAgainstTrueCoefficients(snap, setup.truth);
  const double ratio = setup.ideal_sse > 0.0 ? sse / setup.ideal_sse : 1.0;
  const std::vector<AlgorithmKind> exact = ExactAlgorithms();
  if (std::find(exact.begin(), exact.end(), w.algo) != exact.end()) {
    // The exact methods must return a brute-force top-k: the true value at
    // every kept index, and the best possible SSE (ties at the k-th
    // magnitude may pick either index).
    std::unordered_map<uint64_t, double> truth;
    for (const WCoeff& c : setup.truth) truth.emplace(c.index, c.value);
    const std::vector<WCoeff>& got = setup.reference->histogram.coefficients();
    bool same = got.size() == std::min(w.k, setup.truth.size());
    for (const WCoeff& c : got) {
      auto it = truth.find(c.index);
      same = same && it != truth.end() &&
             std::fabs(c.value - it->second) <=
                 1e-9 * std::max(1.0, std::fabs(it->second));
    }
    run->Check(same, "exact method did not return true coefficient values");
    run->Check(std::fabs(ratio - 1.0) <= 1e-9,
               "exact method SSE ratio " + std::to_string(ratio) + " != 1");
  }
  const BuildSample& ref = setup.reference_sample;
  run->e2e.Set("comm_bytes", static_cast<double>(ref.comm_bytes()), "bytes");
  run->e2e.Set("sim_s", ref.sim_total_s, "sim_s");
  run->layer.Set("histogram.sse_ratio", ratio, "ratio");
  return serial;
}

std::vector<double> Field(const std::vector<BuildSample>& samples,
                          double (*get)(const BuildSample&)) {
  std::vector<double> v;
  for (const BuildSample& s : samples) v.push_back(get(s));
  return v;
}

/// Per-layer metrics read from the builds' RoundStats and counters.
/// `timed` are the workload's own builds; `serial` the threads=1 builds;
/// `rt1` builds with a single reduce task.
void SetBuildLayerMetrics(Run* run, const std::vector<BuildSample>& timed,
                          const std::vector<BuildSample>& serial,
                          const std::vector<BuildSample>& rt1) {
  MetricSet& m = run->layer;
  if (timed.empty()) return;
  auto med = [&](double (*get)(const BuildSample&)) {
    return Median(Field(timed, get));
  };
  const double map_ms = med([](const BuildSample& s) { return s.map_wall_ms; });
  const double reduce_ms =
      med([](const BuildSample& s) { return s.reduce_wall_ms; });
  m.Set("mapreduce.map_wall_ms", map_ms, "ms");
  m.Set("mapreduce.reduce_wall_ms", reduce_ms, "ms");
  m.Set("histogram.outside_rounds_ms", med([](const BuildSample& s) {
          return s.wall_ms - s.map_wall_ms - s.reduce_wall_ms;
        }),
        "ms");
  m.Set("mapreduce.map_rec_per_s", med([](const BuildSample& s) {
          return s.map_wall_ms > 0 ? static_cast<double>(s.map_records) /
                                         (s.map_wall_ms * 1e-3)
                                   : 0.0;
        }),
        "1/s");
  const double serial_map =
      Median(Field(serial, [](const BuildSample& s) { return s.map_wall_ms; }));
  m.Set("mapreduce.map_speedup", map_ms > 0 ? serial_map / map_ms : 0.0, "x");
  const double rt1_reduce =
      Median(Field(rt1, [](const BuildSample& s) { return s.reduce_wall_ms; }));
  m.Set("mapreduce.reduce_speedup",
        reduce_ms > 0 ? rt1_reduce / reduce_ms : 0.0, "x");

  const BuildSample& f = timed.front();  // the deterministic fields
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  m.Set("mapreduce.shuffle_pairs", count(f.shuffle_pairs), "count");
  m.Set("mapreduce.shuffle_bytes", count(f.shuffle_bytes), "bytes");
  m.Set("mapreduce.broadcast_bytes", count(f.broadcast_bytes), "bytes");
  m.Set("mapreduce.combine_ratio",
        f.map_output_pairs > 0
            ? count(f.shuffle_pairs) / count(f.map_output_pairs)
            : 0.0,
        "ratio");
  m.Set("mapreduce.reduce_range_spread", f.range_spread, "ratio");
  m.Set("mapreduce.reduce_steals",
        med([](const BuildSample& s) { return static_cast<double>(s.steals); }),
        "count");
  m.Set("mapreduce.spill_files", count(f.spill_files), "count");
  m.Set("mapreduce.spill_bytes", count(f.spill_bytes), "bytes");
  m.Set("mapreduce.spill_read_bytes", count(f.spill_read_bytes), "bytes");
  uint64_t fallbacks = 0, retries = 0;
  for (const BuildSample& s : timed) {
    fallbacks += s.spill_fallbacks;
    retries += s.spill_retries;
  }
  m.Set("mapreduce.spill_fallbacks", count(fallbacks), "count");
  m.Set("mapreduce.spill_retries", count(retries), "count");
  m.Set("mapreduce.sim_map_s", f.sim_map_s, "sim_s");
  m.Set("mapreduce.sim_shuffle_s", f.sim_shuffle_s, "sim_s");
  m.Set("mapreduce.sim_reduce_s", f.sim_reduce_s, "sim_s");
  m.Set("mapreduce.sim_spill_s", f.sim_spill_s, "sim_s");
  m.Set("mapreduce.map_ms_per_sim_s",
        f.sim_map_s > 0 ? map_ms / f.sim_map_s : 0.0, "ms/sim_s");
  m.Set("mapreduce.reduce_ms_per_sim_s",
        f.sim_reduce_s > 0 ? reduce_ms / f.sim_reduce_s : 0.0, "ms/sim_s");
}

/// Traced runs alternate traced and untraced operations; this is how much
/// slower the traced ones were, in percent, on the worse of p50 and p75.
void SetTraceOverhead(Run* run, const std::vector<double>& traced,
                      const std::vector<double>& untraced) {
  double worst = 0.0;
  for (double q : {0.5, 0.75}) {
    const double u = Quantile(untraced, q);
    if (u > 0.0) worst = std::max(worst, (Quantile(traced, q) - u) / u * 100.0);
  }
  run->layer.Set("trace_overhead_pct", worst, "%");
}

// -------------------------------------------------------------- serving

/// Snapshots by version, so a sampled served answer can be recomputed on the
/// exact version it was answered from.
class VersionBook {
 public:
  void Remember(uint64_t version,
                std::shared_ptr<const HistogramSnapshot> snap) {
    std::lock_guard<std::mutex> lock(mu_);
    versions_[version] = std::move(snap);
  }
  std::shared_ptr<const HistogramSnapshot> Get(uint64_t version) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = versions_.find(version);
    return it == versions_.end() ? nullptr : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<const HistogramSnapshot>> versions_;
};

/// What the rebuild hook records per rebuild.
struct RebuildRecord {
  BuildSample build;
  double to_snapshot_ms = 0.0;
};

/// A registry publishing the workload's synopsis and a QueryServer on an
/// ephemeral port whose kRebuild op reruns the workload's build.
class ServeSession {
 public:
  ServeSession(Run* run, const Setup& setup, BuildOptions rebuild_options)
      : run_(run),
        setup_(setup),
        rebuild_options_(rebuild_options),
        server_(&registry_, ServerOptions{0, kServeWorkers},
                [this](uint64_t count) { return Rebuild(count); }) {}

  /// Publishes version 1 and starts the server.
  Status Start() {
    std::shared_ptr<const HistogramSnapshot> snap;
    {
      Tracer::Scope span(&run_->tracer, "histogram.to_snapshot");
      snap = std::make_shared<const HistogramSnapshot>(
          setup_.reference->ToSnapshot());
    }
    {
      Tracer::Scope span(&run_->tracer, "serve.publish");
      book_.Remember(registry_.Publish(snap), snap);
    }
    Tracer::Scope span(&run_->tracer, "serve.start");
    return server_.Start();
  }

  int port() const { return server_.port(); }
  const QueryServer& server() const { return server_; }
  uint64_t versions_published() const { return registry_.current_version(); }

  /// Open-loop load; every sampled answer is checked against the version it
  /// was answered from, and sampled requests become spans.
  LoadResult Load(double rate, int connections, double seconds, uint64_t seed) {
    LoadSpec spec;
    spec.port = port();
    spec.connections = connections;
    spec.rate_qps = rate;
    spec.seconds = seconds;
    spec.seed = seed;
    spec.domain = kDomain;
    LoadResult r = RunOpenLoop(spec);
    run_->attempted.fetch_add(r.attempted);
    run_->failed.fetch_add(r.failed);
    sent_ += r.attempted;
    bool answers_ok = true;
    for (const SampledQuery& q : r.samples) {
      if (q.response.empty()) continue;  // counted as failed already
      auto snap = book_.Get(AnsweredVersion(q));
      answers_ok = answers_ok && snap != nullptr && AnswerMatches(q, *snap);
      run_->tracer.Add("serve.request", 0, q.due_ns, q.recv_ns);
    }
    run_->Check(answers_ok,
                "a served answer differs from the in-process estimate");
    return r;
  }

  /// Sends kRebuild from its own connection until `end_ns`, waiting
  /// kRebuildGapMs after each response (at least `min_count` rebuilds).
  /// Returns each rebuild's send-to-response time in ms.
  std::vector<double> RebuildLoop(int64_t end_ns, int min_count) {
    std::vector<double> ms;
    ServeClient admin;
    if (!admin.Connect("127.0.0.1", port()).ok()) {
      run_->Check(false, "admin connection failed");
      return ms;
    }
    while (NowNs() < end_ns || static_cast<int>(ms.size()) < min_count) {
      const int64_t t0 = NowNs();
      StatusOr<uint64_t> v = admin.Rebuild();
      run_->attempted.fetch_add(1);
      ++sent_;
      if (!v.ok()) {
        run_->failed.fetch_add(1);
        run_->Check(false, "rebuild failed: " + v.status().ToString());
        break;
      }
      ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
      const int64_t next_ns = NowNs() + int64_t{kRebuildGapMs} * 1'000'000;
      if (static_cast<int>(ms.size()) >= min_count && next_ns >= end_ns) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(kRebuildGapMs));
    }
    return ms;
  }

  /// Queries the server counted, which must equal the requests sent.
  void CheckServed() const {
    run_->Check(server_.queries_served() == sent_,
                "server answered " + std::to_string(server_.queries_served()) +
                    " requests, " + std::to_string(sent_.load()) +
                    " were sent");
  }

  std::vector<RebuildRecord> records() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
  }

 private:
  StatusOr<std::shared_ptr<const HistogramSnapshot>> Rebuild(uint64_t count) {
    Tracer::Scope span(&run_->tracer, "serve.rebuild");
    TimedBuild b = Build(run_, *setup_.dataset, rebuild_options_);
    if (b.result == nullptr) return Status::Internal("rebuild failed");
    run_->Check(SameSynopsis(*b.result, *setup_.reference),
                "a rebuild's synopsis differs from the first build");
    const int64_t t0 = NowNs();
    std::shared_ptr<const HistogramSnapshot> snap;
    {
      Tracer::Scope to_snapshot(&run_->tracer, "histogram.to_snapshot");
      snap = std::make_shared<const HistogramSnapshot>(b.result->ToSnapshot());
    }
    const double to_snapshot_ms = static_cast<double>(NowNs() - t0) * 1e-6;
    // Version 1 is the initial publish and rebuilds arrive one at a time
    // from the admin connection, so rebuild `count` becomes version count+1.
    book_.Remember(count + 1, snap);
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(RebuildRecord{b.sample, to_snapshot_ms});
    return snap;
  }

  Run* run_;
  const Setup& setup_;
  const BuildOptions rebuild_options_;
  VersionBook book_;
  std::atomic<uint64_t> sent_{0};
  mutable std::mutex mu_;
  std::vector<RebuildRecord> records_;  // guarded by mu_
  SnapshotRegistry registry_;
  QueryServer server_;  // last: stops before what its hook uses is destroyed
};

/// Latency metrics of one reference-rate load.
void SetWireMetrics(Run* run, const LoadResult& load) {
  MetricSet& m = run->layer;
  m.Set("serve.query_p90_us", Quantile(load.latency_us, 0.90), "us");
  m.Set("serve.p99_us", Quantile(load.latency_us, 0.99), "us");
  m.Set("serve.p999_us", Quantile(load.latency_us, 0.999), "us");
  m.Set("serve.gen_late_us_p99", Quantile(load.late_us, 0.99), "us");
  m.Set("serve.gen_late_us_max", Quantile(load.late_us, 1.0), "us");
  const MetricSet::Entry* inproc = m.Find("serve.inproc_us_p50");
  m.Set("serve.wire_queue_us",
        Median(load.latency_us) - (inproc != nullptr ? inproc->value : 0.0),
        "us");
}

/// Rate ladder: the rate at which p90 crosses kLatencyLimitUs, linearly
/// interpolated between rungs. A rung whose generator lateness p99 exceeds
/// kMaxLateP99Us (or that loses queries) is invalid and ends the ladder.
double Capacity(ServeSession* session, double rung_s, uint64_t seed) {
  double prev_rate = 0.0, prev_p90 = 0.0;
  bool have_prev = false;
  for (double rate : kLadder) {
    const LoadResult r = session->Load(
        rate, kReadConnections, rung_s,
        Mix64(seed + static_cast<uint64_t>(rate)));
    if (r.failed > 0 || Quantile(r.late_us, 0.99) > kMaxLateP99Us) break;
    const double p90 = Quantile(r.latency_us, 0.90);
    if (p90 > kLatencyLimitUs) {
      if (!have_prev) return 0.0;
      return prev_rate + (kLatencyLimitUs - prev_p90) / (p90 - prev_p90) *
                             (rate - prev_rate);
    }
    prev_rate = rate;
    prev_p90 = p90;
    have_prev = true;
  }
  return prev_rate;  // the limit held on every valid rung: a lower bound
}

void SetRebuildMetrics(Run* run, const ServeSession& session,
                       const std::vector<double>& rebuild_ms) {
  MetricSet& m = run->layer;
  const std::vector<RebuildRecord> records = session.records();
  std::vector<double> build_ms, snap_ms;
  for (const RebuildRecord& r : records) {
    build_ms.push_back(r.build.wall_ms);
    snap_ms.push_back(r.to_snapshot_ms);
  }
  m.Set("serve.rebuild_ms_p50", Median(rebuild_ms), "ms");
  m.Set("serve.rebuild_build_ms", Median(build_ms), "ms");
  m.Set("histogram.to_snapshot_ms", Median(snap_ms), "ms");
  m.Set("serve.versions_published",
        static_cast<double>(session.versions_published()), "count");
}

void SetServerCounters(Run* run, const ServeSession& session) {
  session.CheckServed();
  const QueryServer& s = session.server();
  MetricSet& m = run->layer;
  m.Set("serve.queries_served", static_cast<double>(s.queries_served()),
        "count");
  m.Set("serve.connections_shed", static_cast<double>(s.connections_shed()),
        "count");
  m.Set("serve.idle_disconnects", static_cast<double>(s.idle_disconnects()),
        "count");
  run->Check(s.connections_shed() == 0 && s.idle_disconnects() == 0,
             "the server shed or evicted a connection");
}

/// The layer probes every traced run makes on its own data and synopsis.
void LayerProbes(Run* run, const Setup& setup) {
  ProbeDataAndWavelet(*setup.dataset, &run->tracer, &run->layer);
  ProbeSketch(*setup.dataset, OptionsFor(*run), &run->tracer, &run->layer);
  run->Check(ProbeShuffleAndSpill(*setup.dataset, &run->tracer, &run->layer),
             "file-backed merge differs from the resident merge");
  ProbeServeInProcess(
      std::make_shared<const HistogramSnapshot>(setup.reference->ToSnapshot()),
      run->args.seed, &run->tracer, &run->layer);
  run->layer.Set("data.generate_s", setup.generate_s, "s");
}

/// Extra builds of the traced run: threads=1 (map speedup, and the
/// reference check) and reduce_tasks=1 (reduce speedup).
struct ExtraBuilds {
  std::vector<BuildSample> serial;
  std::vector<BuildSample> rt1;
};

ExtraBuilds RunExtraBuilds(Run* run, const Setup& setup) {
  ExtraBuilds x;
  x.serial =
      CheckSynopsis(run, setup, run->traced ? run->scale.serial_builds : 1);
  if (!run->traced) return x;
  BuildOptions o = OptionsFor(*run);
  o.reduce_tasks = 1;
  for (int i = 0; i < run->scale.rt1_builds; ++i) {
    TimedBuild b = Build(run, *setup.dataset, o);
    if (b.result != nullptr) x.rt1.push_back(b.sample);
  }
  return x;
}

// ------------------------------------------------------------- workloads

std::vector<double> Walls(const std::vector<BuildSample>& samples,
                          bool traced) {
  std::vector<double> v;
  for (const BuildSample& s : samples) {
    if (s.traced == traced) v.push_back(s.wall_ms);
  }
  return v;
}

/// Repeats set-up scale.setups times and reports the median as setup_s; the
/// last set-up is the one measured. peak_rss_mb is the high-water mark of
/// the first set-up, in a fresh process: later set-ups and the window reuse
/// memory the allocator kept, and how much it kept depends on which threads
/// freed it.
template <typename Fn>
auto RepeatedSetUp(Run* run, Fn&& set_up) {
  std::vector<double> seconds;
  decltype(set_up()) kept;
  for (int i = 0; i < run->scale.setups; ++i) {
    kept = {};  // release the previous set-up before building the next
    const int64_t t0 = NowNs();
    Tracer::Scope span(&run->tracer, "bench.setup");
    kept = set_up();
    seconds.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    if (i == 0) run->e2e.Set("peak_rss_mb", PeakRssMb(), "MiB");
  }
  run->e2e.Set("setup_s", Median(seconds), "s");
  return kept;
}

void RunBuildWorkload(Run* run) {
  std::unique_ptr<Setup> setup =
      RepeatedSetUp(run, [run] { return SetUp(run); });
  if (setup->reference == nullptr) return;
  const BuildOptions options = OptionsFor(*run);

  std::vector<BuildSample> timed;
  const int64_t end_ns =
      NowNs() + static_cast<int64_t>(run->args.seconds * 1e9);
  while (NowNs() < end_ns ||
         static_cast<int>(timed.size()) < run->scale.min_builds) {
    if (run->traced) run->tracer.set_enabled(timed.size() % 2 == 1);
    TimedBuild b = Build(run, *setup->dataset, options);
    if (b.result == nullptr) break;
    run->Check(SameSynopsis(*b.result, *setup->reference),
               "a timed build's synopsis differs from the first build");
    timed.push_back(b.sample);
  }
  run->tracer.set_enabled(run->traced);

  std::vector<double> walls = Walls(timed, false);
  if (run->traced) {
    const std::vector<double> traced_walls = Walls(timed, true);
    SetTraceOverhead(run, traced_walls, walls);
    walls.insert(walls.end(), traced_walls.begin(), traced_walls.end());
  }
  run->e2e.Set("latency_ms_p50", Quantile(walls, 0.50), "ms");
  run->e2e.Set("latency_ms_p75", Quantile(walls, 0.75), "ms");
  std::printf("%s: %zu timed builds\n", run->workload.name, timed.size());

  ExtraBuilds extra = RunExtraBuilds(run, *setup);
  if (!run->traced) return;
  SetBuildLayerMetrics(run, timed, extra.serial, extra.rt1);
  LayerProbes(run, *setup);

  ServeSession session(run, *setup, options);
  if (!session.Start().ok()) {
    run->Check(false, "server failed to start");
    return;
  }
  SetWireMetrics(run, session.Load(kProbeRate, kReadConnections,
                                   run->scale.probe_s, run->args.seed));
  run->layer.Set("serve.capacity_qps",
                 Capacity(&session, run->scale.rung_s, run->args.seed), "1/s");
  SetRebuildMetrics(run, session,
                    session.RebuildLoop(0, run->scale.probe_rebuilds));
  SetServerCounters(run, session);
}

/// Set-up of a serve workload: the build set-up plus a running server that
/// has already answered warm-up traffic.
struct ServeSetup {
  std::unique_ptr<Setup> build;
  std::unique_ptr<ServeSession> session;  // declared last: destroyed first
  ServeSetup() = default;
  ServeSetup(ServeSetup&&) = default;
  // The session's server reads `build` from its rebuild hook, so the old
  // session goes before the old build.
  ServeSetup& operator=(ServeSetup&& other) {
    session = std::move(other.session);
    build = std::move(other.build);
    return *this;
  }
};

void RunServeWorkload(Run* run) {
  const bool rebuilds = run->workload.mode == Mode::kServeRebuild;
  const double rate = rebuilds ? kRebuildReadRate : kReadRate;
  const int connections = rebuilds ? kRebuildReadConnections : kReadConnections;
  ServeSetup s = RepeatedSetUp(run, [run, rate, connections] {
    ServeSetup out;
    out.build = SetUp(run);
    if (out.build->reference == nullptr) return out;
    out.session =
        std::make_unique<ServeSession>(run, *out.build, OptionsFor(*run));
    if (!out.session->Start().ok()) {
      run->Check(false, "server failed to start");
      out.session.reset();
      return out;
    }
    out.session->Load(rate, connections, run->scale.warmup_s,
                      run->args.seed + 1);
    return out;
  });
  if (s.session == nullptr) return;
  ServeSession& session = *s.session;

  // One measured window of queries; under serve-rebuild the admin
  // connection rebuilds for the same stretch.
  std::vector<double> rebuild_ms;
  auto window = [&](double window_s, uint64_t seed) {
    if (!rebuilds) return session.Load(rate, connections, window_s, seed);
    std::vector<double> part;
    std::thread admin([&] {
      part = session.RebuildLoop(
          NowNs() + static_cast<int64_t>(window_s * 1e9), 1);
    });
    LoadResult load = session.Load(rate, connections, window_s, seed);
    admin.join();
    rebuild_ms.insert(rebuild_ms.end(), part.begin(), part.end());
    return load;
  };

  // A traced run alternates untraced and traced slices, so that
  // trace_overhead_pct compares the two under the same host conditions;
  // serve-read spends the second half of its window on the rate ladder.
  const double seconds = run->args.seconds;
  const double measured_s = run->traced && !rebuilds ? seconds / 2 : seconds;
  const int slices = run->traced ? run->scale.trace_slices : 1;
  LoadResult all;
  std::vector<double> untraced_us, traced_us;
  for (int i = 0; i < slices; ++i) {
    const bool traced_slice = run->traced && i % 2 == 1;
    run->tracer.set_enabled(traced_slice);
    const LoadResult load = window(measured_s / slices, run->args.seed + 2 + i);
    std::vector<double>& part = traced_slice ? traced_us : untraced_us;
    part.insert(part.end(), load.latency_us.begin(), load.latency_us.end());
    all.latency_us.insert(all.latency_us.end(), load.latency_us.begin(),
                          load.latency_us.end());
    all.late_us.insert(all.late_us.end(), load.late_us.begin(),
                       load.late_us.end());
  }
  run->tracer.set_enabled(run->traced);
  run->e2e.Set("latency_ms_p50", Quantile(all.latency_us, 0.50) * 1e-3, "ms");
  run->e2e.Set("latency_ms_p75", Quantile(all.latency_us, 0.75) * 1e-3, "ms");
  std::printf("%s: %zu queries at %.0f/s\n", run->workload.name,
              all.latency_us.size(), rate);
  if (run->traced && !rebuilds) {
    const double rung_s =
        (seconds - measured_s) / static_cast<double>(std::size(kLadder));
    run->layer.Set("serve.capacity_qps",
                   Capacity(&session, rung_s, run->args.seed), "1/s");
  }

  ExtraBuilds extra = RunExtraBuilds(run, *s.build);
  if (!run->traced) {
    SetServerCounters(run, session);
    return;
  }
  SetTraceOverhead(run, traced_us, untraced_us);
  std::vector<BuildSample> builds;
  if (rebuilds) {
    for (const RebuildRecord& r : session.records()) builds.push_back(r.build);
  } else {
    builds.push_back(s.build->reference_sample);
  }
  SetBuildLayerMetrics(run, builds, extra.serial, extra.rt1);
  LayerProbes(run, *s.build);
  SetWireMetrics(run, all);
  if (rebuilds) {
    run->layer.Set("serve.capacity_qps",
                   Capacity(&session, run->scale.rung_s, run->args.seed),
                   "1/s");
  } else {
    rebuild_ms = session.RebuildLoop(0, run->scale.probe_rebuilds);
  }
  SetRebuildMetrics(run, session, rebuild_ms);
  SetServerCounters(run, session);
}

// ------------------------------------------------------------------ driver

std::string HostJson() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  std::string safe;
  for (char c : cpu) {
    if (c != '"' && c != '\\') safe += c;
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %u, \"simd_tier\": \"%s\", \"cpu_model\": \"%s\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\"}",
                std::thread::hardware_concurrency(), SimdTierName(SimdK().tier),
                safe.c_str(), __VERSION__, PERFBENCH_BUILD_TYPE);
  return buf;
}

/// Every name in `defs` set exactly once and finite, nothing else.
bool Complete(const MetricSet& set, const MetricDef* defs, size_t count,
              std::string* missing) {
  bool ok = set.entries().size() == count;
  for (size_t i = 0; i < count; ++i) {
    const MetricSet::Entry* e = set.Find(defs[i].name);
    if (e == nullptr || !std::isfinite(e->value) || e->unit != defs[i].unit) {
      *missing += std::string(" ") + defs[i].name;
      ok = false;
    }
  }
  return ok;
}

struct Outcome {
  bool correct = false;
  std::string json;
};

Outcome RunWorkload(const Workload& w, const Args& args, const Scale& scale,
                    bool traced) {
  Run run(w, args, scale, traced);
  if (w.mode == Mode::kBuild) {
    RunBuildWorkload(&run);
  } else {
    RunServeWorkload(&run);
  }
  if (traced) {
    run.layer.Set("trace.spans", static_cast<double>(run.tracer.size()),
                  "count");
  }

  // Traced runs compute the end-to-end metrics too; both sets must be whole.
  std::string missing;
  bool complete =
      Complete(run.e2e, kEndToEnd, std::size(kEndToEnd), &missing);
  if (traced) {
    complete = Complete(run.layer, kPerLayer, std::size(kPerLayer), &missing) &&
               complete;
  }
  run.Check(complete, "metrics missing or not finite:" + missing);
  const MetricSet& out = traced ? run.layer : run.e2e;
  if (traced && !args.trace_path.empty()) {
    run.Check(run.tracer.Write(args.trace_path),
              "cannot write " + args.trace_path);
  }
  const std::vector<std::string> failures = run.Failures();
  for (const std::string& f : failures) {
    std::fprintf(stderr, "CHECK FAILED %s: %s\n", w.name, f.c_str());
  }
  for (const MetricSet::Entry& e : out.entries()) {
    std::printf("  %-36s %16.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
  Outcome o;
  o.correct = failures.empty();
  o.json = std::string("{\"correct\": ") + (o.correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(run.attempted.load()) +
           ", \"failed\": " + std::to_string(run.failed.load()) +
           ", \"metrics\": " + out.Json() + "}";
  return o;
}

void PrintCatalog() {
  auto list = [](const MetricDef* defs, size_t n) {
    std::string s = "[";
    for (size_t i = 0; i < n; ++i) {
      s += std::string(i ? ", " : "") + "{\"name\": \"" + defs[i].name +
           "\", \"unit\": \"" + defs[i].unit + "\"}";
    }
    return s + "]";
  };
  std::string workloads = "[";
  for (const Workload& w : kWorkloads) {
    workloads +=
        std::string(workloads.size() > 1 ? ", " : "") + "\"" + w.name + "\"";
  }
  std::printf("{\"workloads\": %s], \"end_to_end\": %s, \"per_layer\": %s}\n",
              workloads.c_str(), list(kEndToEnd, std::size(kEndToEnd)).c_str(),
              list(kPerLayer, std::size(kPerLayer)).c_str());
}

int Main(int argc, char** argv) {
  Args args;
  FlagParser parser(
      "perfbench_suite --workload=NAME [--seed=42] [--seconds=15]\n"
      "                [--trace=PATH]\n"
      "perfbench_suite --smoke | --catalog");
  parser.String("workload", &args.workload, "workload to run");
  parser.U64("seed", &args.seed, "input seed");
  parser.F64("seconds", &args.seconds, "length of the measured window");
  parser.String("trace", &args.trace_path,
                "traced run: write spans here, print per-layer metrics");
  parser.Bool("smoke", &args.smoke,
              "every workload at 1/32 scale with all checks");
  parser.Bool("catalog", &args.catalog, "print workload and metric names");
  Status parsed = parser.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.message().c_str(),
                 parser.Help().c_str());
    return 2;
  }
  if (parser.help_requested()) {
    std::printf("%s", parser.Help().c_str());
    return 0;
  }
  if (args.catalog) {
    PrintCatalog();
    return 0;
  }
  if (args.smoke) {
    // Traced runs execute every untraced step as well, plus the probes.
    args.seconds = 0.1;
    args.trace_path = (std::filesystem::temp_directory_path() /
                       "perfbench-smoke-trace.json")
                          .string();
    bool ok = true;
    for (const Workload& w : kWorkloads) {
      const int64_t t0 = NowNs();
      ok = RunWorkload(w, args, kSmokeScale, /*traced=*/true).correct && ok;
      std::printf("smoke %s: %.2f s\n", w.name,
                  static_cast<double>(NowNs() - t0) * 1e-9);
    }
    std::filesystem::remove(args.trace_path);
    std::printf("smoke: %s\n", ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr || !(args.seconds > 0.0)) {
    std::fprintf(stderr, "unknown --workload '%s' or bad --seconds\n%s",
                 args.workload.c_str(), parser.Help().c_str());
    return 2;
  }
  std::printf("host %s\n", HostJson().c_str());
  const Outcome o =
      RunWorkload(*workload, args, kFullScale, !args.trace_path.empty());
  std::printf("%s\n", o.json.c_str());
  return o.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace wavemr

int main(int argc, char** argv) { return wavemr::perfbench::Main(argc, argv); }
