#ifndef WAVEMR_MAPREDUCE_COST_MODEL_H_
#define WAVEMR_MAPREDUCE_COST_MODEL_H_

#include <cstdint>

namespace wavemr {

/// Translates *measured* work (records scanned, bytes moved, CPU operations
/// charged by algorithm code) into simulated wall-clock seconds on the
/// paper's cluster. Everything the algorithms report as "communication" is
/// measured from the actual pairs they emit; only seconds are modeled.
///
/// Constants approximate a 2011-era Hadoop 0.20.2 deployment (JVM task
/// startup, hash-map-per-record map loops, a 100 Mbps shared switch), which
/// is what the paper ran on. Their absolute values matter less than their
/// ratios.
struct CostModel {
  /// Sequential local-disk scan rate (MB/s) for reading splits/state files.
  double disk_mbps = 80.0;

  /// Full network bandwidth of the switch, megabits/s (the paper's 100 Mbps).
  double network_mbps = 100.0;

  /// Fraction of the network available to this job (the paper's B knob;
  /// default 50% simulating a busy shared cluster).
  double bandwidth_fraction = 0.5;

  /// Fixed per-MapReduce-round overhead (job setup, scheduling).
  double job_overhead_s = 8.0;

  /// Per-map-task overhead (task launch; Hadoop starts a JVM per task).
  double task_overhead_s = 0.3;

  /// Base CPU cost to ingest one record in a Mapper (read + parse + one
  /// hash-map update, the common pattern in every algorithm here).
  double map_cpu_ns_per_record = 600.0;

  /// CPU cost to emit one intermediate pair (serialize + partition + buffer).
  double emit_cpu_ns_per_pair = 150.0;

  /// CPU cost for the Reducer to absorb one intermediate pair.
  double reduce_cpu_ns_per_pair = 200.0;

  /// Sequential local-disk rate (MB/s) for the external shuffle's spill
  /// writes and merge read-back. Spill time is *measured* from the bytes
  /// actually moved and reported separately (RoundStats::spill_s) -- it is
  /// NOT folded into TotalSeconds, so the headline simulated seconds stay
  /// bit-identical across buffer sizes and the paper's in-memory-shuffle
  /// numbers remain comparable.
  double disk_spill_mbps = 80.0;

  /// Bytes of sequential disk transfer charged per randomly sampled record
  /// (one page); total random-read cost is capped at the split size, since
  /// sorted-offset sampling degrades to a sequential scan when dense.
  double seek_page_bytes = 65536.0;

  /// Multiplier on all *work* time (disk, CPU, network) but not on the fixed
  /// per-round/per-task overheads. Benchmarks set it to n_paper / n_bench so
  /// that a proportionally scaled-down dataset yields paper-scale seconds:
  /// per-record and per-byte costs are linear in the data, so scaling the
  /// rates is equivalent to scaling the data back up.
  double time_scale = 1.0;

  /// Seconds to move `bytes` across the network share of this job.
  double NetworkSeconds(uint64_t bytes) const {
    return static_cast<double>(bytes) * 8.0 /
           (network_mbps * 1e6 * bandwidth_fraction);
  }

  /// Seconds of sequential disk transfer for `bytes`.
  double DiskSeconds(uint64_t bytes) const {
    return static_cast<double>(bytes) / (disk_mbps * 1e6);
  }

  /// Seconds of spill-disk transfer for `bytes` (external shuffle IO).
  double SpillDiskSeconds(uint64_t bytes) const {
    return static_cast<double>(bytes) / (disk_spill_mbps * 1e6);
  }
};

}  // namespace wavemr

#endif  // WAVEMR_MAPREDUCE_COST_MODEL_H_
