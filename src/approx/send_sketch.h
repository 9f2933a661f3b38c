#ifndef WAVEMR_APPROX_SEND_SKETCH_H_
#define WAVEMR_APPROX_SEND_SKETCH_H_

#include "histogram/algorithm.h"

namespace wavemr {

/// Send-Sketch (Section 4, "system issues"): each mapper scans its split,
/// builds the local frequency vector, sketches its sparse coefficients into
/// a local GCS wavelet sketch (charged as one update per *distinct* key --
/// the paper's first optimization), and ships only the non-zero sketch
/// counters (the second optimization).
/// The reducer merges the m linear sketches and extracts the top-k
/// coefficients by hierarchical search. One round, but the per-item sketch
/// update cost makes it the slowest method in the paper's Figure 5(b).
class SendSketch : public HistogramAlgorithm {
 public:
  std::string name() const override { return "Send-Sketch"; }
  StatusOr<BuildResult> Build(const Dataset& dataset,
                              const BuildOptions& options) override;
};

}  // namespace wavemr

#endif  // WAVEMR_APPROX_SEND_SKETCH_H_
