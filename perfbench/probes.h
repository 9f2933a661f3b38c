#ifndef WAVEMR_PERFBENCH_PROBES_H_
#define WAVEMR_PERFBENCH_PROBES_H_

#include <cstdint>
#include <memory>

#include "data/dataset.h"
#include "histogram/algorithm.h"
#include "report.h"
#include "serve/snapshot.h"
#include "trace.h"

namespace wavemr {
namespace perfbench {

// Single-layer probes for the traced run. Each one times calls into one
// layer's public functions on the workload's own data, inside a span named
// after that layer, and sets the matching per-layer metrics. They run after
// the measured window, so they never disturb the end-to-end numbers.

/// data.scan_rec_per_s, data.split_freq_ms, wavelet.sparse_haar_ms,
/// wavelet.coeffs_per_split, wavelet.dense_haar_ms.
void ProbeDataAndWavelet(const Dataset& dataset, Tracer* tracer,
                         MetricSet* out);

/// sketch.update_items_per_s, sketch.merge_ms, sketch.topk_ms, core.simd_tier:
/// WaveletGcs fed the distinct keys of a few splits the way Send-Sketch's
/// mapper feeds it.
void ProbeSketch(const Dataset& dataset, const BuildOptions& options,
                 Tracer* tracer, MetricSet* out);

/// mapreduce.run_sort_pairs_per_s, .merge_pairs_per_s, .spill_write_mb_per_s,
/// .spill_merge_pairs_per_s and core.crc32c_mb_per_s over per-split runs of
/// (key, record ordinal) pairs -- the map output of a per-record emitter.
/// Returns false when the file-backed merge does not reproduce the resident
/// merge's stream.
bool ProbeShuffleAndSpill(const Dataset& dataset, Tracer* tracer,
                          MetricSet* out);

/// serve.decode_ns, .acquire_ns, .point_ns, .range_ns, .topk_ns,
/// .encode_ns, .inproc_us_p50 and .publish_us: the server's per-query steps
/// replayed in-process over the serving mix on `snapshot`.
void ProbeServeInProcess(std::shared_ptr<const HistogramSnapshot> snapshot,
                         uint64_t seed, Tracer* tracer, MetricSet* out);

}  // namespace perfbench
}  // namespace wavemr

#endif  // WAVEMR_PERFBENCH_PROBES_H_
