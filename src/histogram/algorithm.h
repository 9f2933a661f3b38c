#ifndef WAVEMR_HISTOGRAM_ALGORITHM_H_
#define WAVEMR_HISTOGRAM_ALGORITHM_H_

#include <cstdint>
#include <string>

#include "core/io.h"
#include "core/status.h"
#include "data/dataset.h"
#include "mapreduce/cluster.h"
#include "mapreduce/cost_model.h"
#include "mapreduce/stats.h"
#include "sketch/wavelet_gcs.h"
#include "wavelet/histogram.h"

namespace wavemr {

class HistogramSnapshot;  // serve/snapshot.h; definition lives in the serve layer
struct MrEnv;              // mapreduce/job.h

/// Knobs shared by every histogram-construction algorithm. Defaults mirror
/// the paper's defaults (k=30, epsilon scaled to the dataset, the 16-machine
/// cluster, 50% available bandwidth).
struct BuildOptions {
  /// Number of retained wavelet coefficients (the paper's k, default 30).
  size_t k = 30;

  /// Sampling error parameter (sampling algorithms): level-1 rate is
  /// p = min(1, 1/(epsilon^2 n)).
  double epsilon = 0.01;

  /// Randomness for samplers and sketches; fixed seed => reproducible runs.
  uint64_t seed = 123;

  /// Worker threads for map-task execution: 1 = serial (default), 0 = one
  /// per hardware thread, N > 1 = a pool of N. Results are bit-identical for
  /// every value; only wall-clock changes (see mapreduce/job.h RunRound).
  int threads = 1;

  /// Key-range reduce partitions for sorted-shuffle rounds: 0 = match the
  /// round's map thread count (default), N >= 1 = exactly N. Bit-identical
  /// results for every value, like threads.
  int reduce_tasks = 0;

  /// Hadoop's sorted reducer delivery on every round; by default every
  /// round streams. Both modes hand each key's values to the reducer in
  /// split order, so the synopsis, communication and simulated seconds are
  /// bit-identical to the default (ParallelDeterminismDeliveryTest); only
  /// the path changes: every round goes through the retained-run/spill
  /// plane (the spill-stress CI lane uses it to exercise external spills).
  bool force_sorted_shuffle = false;

  /// GCS configuration for Send-Sketch (total_bytes 0 = paper's rule).
  WaveletGcsOptions gcs;

  /// Simulated execution environment.
  ClusterSpec cluster = ClusterSpec::PaperCluster();
  CostModel cost_model;

  /// Spill I/O plane: the shuffle buffer (--shuffle-buffer-bytes, > 0) and
  /// the spill retry budget. Bit-identical results for every setting; only
  /// wall-clock and spill counters change.
  IoOptions io;

  // ---- ablation switches (exercised by bench/ablation_*.cc) ----

  /// Send-V: emit one (x,1) pair per record and rely on the engine Combiner
  /// instead of aggregating in the mapper's hash map (Hadoop's default
  /// pipeline). Wire cost identical when the combiner is on.
  bool send_v_emit_per_record = false;
  /// Send-V: disable combining entirely (per-record pairs hit the network).
  bool send_v_disable_combiner = false;
  /// Exact mappers: use the dense O(u) local transform instead of the
  /// O(|v| log u) sparse one (cost-accounting ablation; same results).
  bool use_dense_local_transform = false;

  /// Checks every knob and returns an actionable InvalidArgument for the
  /// first bad one. BuildWaveletHistogram calls this once up front; callers
  /// assembling options by hand (CLIs, benches) need no checks of their own.
  Status Validate() const;
};

/// Fills the engine settings of a fresh `env` from `options`: cluster, cost
/// model, spill I/O, threads, reduce tasks and delivery mode. Every
/// algorithm's Build calls it once, before its first round.
void ConfigureMrEnv(const BuildOptions& options, MrEnv* env);

/// What every algorithm returns: the k-term synopsis plus the measured
/// communication and simulated running time.
struct BuildResult {
  WaveletHistogram histogram;
  JobStats stats;
  /// Display name of the algorithm that built this ("TwoLevel-S", ...);
  /// filled in by BuildWaveletHistogram.
  std::string algorithm;

  /// Freezes the result into an immutable, versionable HistogramSnapshot for
  /// the serve layer (defined in serve/snapshot.cc; link wavemr_serve).
  HistogramSnapshot ToSnapshot() const;
};

/// Interface of the seven algorithms evaluated in the paper.
class HistogramAlgorithm {
 public:
  virtual ~HistogramAlgorithm() = default;
  virtual std::string name() const = 0;
  virtual StatusOr<BuildResult> Build(const Dataset& dataset,
                                      const BuildOptions& options) = 0;
};

/// CPU cost constants charged by algorithm code on top of the engine's
/// per-record / per-pair baselines (CostModel). One "coefficient op" is a
/// hash-map update inside a transform; sketch counter updates are cheaper
/// (array writes after two hashes).
inline constexpr double kCoeffOpNs = 25.0;
inline constexpr double kSketchCounterNs = 150.0;  // Java-era hashed update
inline constexpr double kStateEntryNs = 10.0;
inline constexpr double kTopKSelectNs = 15.0;

}  // namespace wavemr

#endif  // WAVEMR_HISTOGRAM_ALGORITHM_H_
