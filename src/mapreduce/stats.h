#ifndef WAVEMR_MAPREDUCE_STATS_H_
#define WAVEMR_MAPREDUCE_STATS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/counters.h"

namespace wavemr {

/// Work performed by one task; converted to seconds by the CostModel.
struct TaskCost {
  uint64_t records_read = 0;
  uint64_t disk_bytes = 0;   // split scan + state IO + sampled pages
  double cpu_ns = 0.0;       // engine- and algorithm-charged CPU
  uint64_t pairs_emitted = 0;
};

/// Measured + simulated outcome of one MapReduce round.
struct RoundStats {
  std::string name;
  uint64_t map_tasks = 0;
  uint64_t shuffle_pairs = 0;     // pairs leaving mappers (post-combine)
  uint64_t shuffle_bytes = 0;     // wire bytes of those pairs
  uint64_t broadcast_bytes = 0;   // job config + distributed cache replication
  double map_makespan_s = 0.0;
  double shuffle_s = 0.0;
  double reduce_s = 0.0;
  double overhead_s = 0.0;
  /// Real (not simulated) wall-clock of the map phase: dispatching every map
  /// task and merging its output into the reducer. This is the quantity the
  /// perf-smoke CI gate tracks; it varies with --threads while everything
  /// above stays bit-identical.
  double map_wall_ms = 0.0;
  /// Real wall-clock of the sorted-shuffle merge + reduce delivery (0 for
  /// streaming rounds); varies with --reduce-tasks, results do not.
  double reduce_wall_ms = 0.0;
  /// Threads the engine actually used for this round's map tasks.
  int threads_used = 1;
  /// Equi-depth reduce partitions the sorted merge ran with (1 = the classic
  /// single driver-thread merge; streaming rounds always report 1).
  int reduce_tasks_used = 1;
  /// Planned pair counts of the largest and smallest equi-depth reduce
  /// range. Boundaries sit at exact global ranks r*n/R, so max - min <= 1
  /// whenever n >= R; the max/min ratio (ReduceRangeSpread) is the
  /// load-balance figure the skew bench gates. Deterministic for a given
  /// (dataset, reduce_tasks) -- planned counts, not scheduling outcomes.
  uint64_t reduce_range_max_pairs = 0;
  uint64_t reduce_range_min_pairs = 0;
  /// Always 0. Kept only because the benchmark suite reads it; drop it
  /// with the next benchmark change.
  uint64_t reduce_steals = 0;
  /// External shuffle spill: files written this round, bytes written to them
  /// (framing included), and payload bytes the merge read back from disk.
  uint64_t spill_files = 0;
  uint64_t spill_bytes = 0;
  uint64_t spill_read_bytes = 0;
  /// Spill writes that exhausted their IO retries and fell back to keeping
  /// the run resident (ShufflePlane pinning -- results unchanged), and
  /// transient-errno retries spill writes performed. Recovery telemetry,
  /// not cost: a healthy disk reports 0/0.
  uint64_t spill_fallbacks = 0;
  uint64_t spill_retries = 0;
  /// Simulated seconds of spill IO (CostModel::disk_spill_mbps over bytes
  /// written + read), reported separately: TotalSeconds deliberately
  /// excludes it so the headline simulated seconds are bit-identical across
  /// {no spill, forced spill} and stay comparable to the paper's in-memory
  /// shuffle numbers.
  double spill_s = 0.0;
  double TotalSeconds() const {
    return overhead_s + map_makespan_s + shuffle_s + reduce_s;
  }
  uint64_t CommBytes() const { return shuffle_bytes + broadcast_bytes; }
  /// max/min planned pairs per reduce range; 0 when undefined (some range
  /// planned empty, or a streaming/single-range round).
  double ReduceRangeSpread() const {
    if (reduce_range_min_pairs == 0) return 0.0;
    return static_cast<double>(reduce_range_max_pairs) /
           static_cast<double>(reduce_range_min_pairs);
  }
};

/// Aggregate over all rounds of one algorithm execution.
///
/// Round appends go through AddRound, which is safe to call from concurrent
/// drivers sharing one JobStats; `counters` is itself thread-safe.
struct JobStats {
  std::vector<RoundStats> rounds;
  Counters counters;

  JobStats() = default;
  JobStats(const JobStats& other)
      : rounds(other.SnapshotRounds()), counters(other.counters) {}
  JobStats(JobStats&& other) noexcept
      : rounds(other.SnapshotRounds()), counters(std::move(other.counters)) {}
  JobStats& operator=(const JobStats& other) {
    if (this != &other) {
      auto snapshot = other.SnapshotRounds();
      std::lock_guard<std::mutex> lock(rounds_mu_);
      rounds = std::move(snapshot);
      counters = other.counters;
    }
    return *this;
  }
  JobStats& operator=(JobStats&& other) noexcept { return *this = other; }

  void AddRound(RoundStats round) {
    std::lock_guard<std::mutex> lock(rounds_mu_);
    rounds.push_back(std::move(round));
  }

  uint64_t TotalCommBytes() const {
    uint64_t b = 0;
    for (const RoundStats& r : rounds) b += r.CommBytes();
    return b;
  }
  double TotalSeconds() const {
    double s = 0.0;
    for (const RoundStats& r : rounds) s += r.TotalSeconds();
    return s;
  }
  double TotalMapWallMs() const {
    double ms = 0.0;
    for (const RoundStats& r : rounds) ms += r.map_wall_ms;
    return ms;
  }
  uint64_t TotalSpillFiles() const {
    uint64_t n = 0;
    for (const RoundStats& r : rounds) n += r.spill_files;
    return n;
  }
  uint64_t TotalSpillBytes() const {
    uint64_t b = 0;
    for (const RoundStats& r : rounds) b += r.spill_bytes;
    return b;
  }
  double TotalSpillSeconds() const {
    double s = 0.0;
    for (const RoundStats& r : rounds) s += r.spill_s;
    return s;
  }
  uint64_t TotalSpillFallbacks() const {
    uint64_t n = 0;
    for (const RoundStats& r : rounds) n += r.spill_fallbacks;
    return n;
  }
  uint64_t TotalSpillRetries() const {
    uint64_t n = 0;
    for (const RoundStats& r : rounds) n += r.spill_retries;
    return n;
  }
  size_t NumRounds() const { return rounds.size(); }

 private:
  std::vector<RoundStats> SnapshotRounds() const {
    std::lock_guard<std::mutex> lock(rounds_mu_);
    return rounds;
  }

  mutable std::mutex rounds_mu_;
};

}  // namespace wavemr

#endif  // WAVEMR_MAPREDUCE_STATS_H_
