#ifndef WAVEMR_SKETCH_WAVELET_GCS_H_
#define WAVEMR_SKETCH_WAVELET_GCS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sketch/group_count_sketch.h"
#include "wavelet/coefficient.h"

namespace wavemr {

/// Configuration of the hierarchical GCS wavelet tracker.
struct WaveletGcsOptions {
  uint64_t seed = 1;
  /// Median repetitions per level (t in the EDBT'06 paper).
  size_t reps = 3;
  /// Sub-buckets per bucket (c).
  size_t subbuckets = 8;
  /// Search degree bits: groups shrink by 2^degree_bits per level. 3 gives
  /// the paper's GCS-8 ("overall best per-item update cost").
  uint32_t degree_bits = 3;
  /// Total space across all levels; 0 applies the paper's recommended
  /// 20 KB * log2(u).
  uint64_t total_bytes = 0;
};

/// Wavelet-domain synopsis built from Group-Count Sketches over a dyadic
/// hierarchy of coefficient groups (Cormode et al. [13]): level 0 sketches
/// singleton coefficients, level l sketches groups of 2^(l*degree_bits)
/// consecutive coefficient indices. A data-domain point update touches
/// log2(u)+1 coefficients, each updated in every level -- this multiplicative
/// per-item cost is precisely why Send-Sketch loses the running-time race in
/// the paper's Figure 5(b).
///
/// The sketch is linear: UpdateCoeffs over a split's sparse transform gives
/// the sketch of one UpdateData per key, updating each coefficient once.
///
/// Heavy coefficients are recovered by descending the hierarchy from the
/// root, expanding only groups whose estimated energy clears a threshold.
class WaveletGcs {
 public:
  /// Deepest supported error tree (u <= 2^60); bounds UpdateData's path.
  static constexpr uint32_t kMaxTreeDepth = 60;

  WaveletGcs(uint64_t u, const WaveletGcsOptions& options);

  uint64_t domain_size() const { return u_; }
  size_t num_levels() const { return levels_.size(); }

  /// v(x) += count in the *data* domain (translates to log2(u)+1 coefficient
  /// updates).
  void UpdateData(uint64_t x, double count);

  /// w(c.index) += c.value for every c in `coeffs`, in the coefficient
  /// domain. Index order (SparseHaarSorted's output) maximizes the group
  /// bucket reuse inside each level; any order is correct.
  void UpdateCoeffs(std::span<const WCoeff> coeffs);

  /// Point estimate of coefficient `index` from the singleton level.
  double EstimateCoeff(uint64_t index) const;

  /// Estimated total coefficient energy (from the root level's groups).
  double EstimateEnergy() const;

  /// Hierarchical search for the k coefficients of largest |estimate|. The
  /// threshold starts at energy/(2k) and halves until enough candidates
  /// emerge (bounded by max_candidates to keep the search near O(k)).
  std::vector<WCoeff> FindTopK(size_t k, size_t max_candidates = 8192) const;

  void Merge(const WaveletGcs& other);

  /// Counter updates performed per data-domain point update; used by the
  /// MapReduce layer to charge CPU faithfully.
  uint64_t CounterUpdatesPerDataPoint() const;

  /// Total and non-zero counters (a mapper ships only the non-zero ones).
  size_t NumCounters() const;
  uint64_t NonzeroCounters() const;

  /// Iterates non-zero counters as (flat_index, value) across all levels --
  /// the wire format of Send-Sketch.
  void ForEachNonzeroCounter(const std::function<void(uint64_t, double)>& fn) const;

  /// Adds `delta` into the counter with the given flat index (reducer-side
  /// merge from shuffled pairs).
  void AddToFlatCounter(uint64_t flat_index, double delta);

 private:
  uint64_t NumGroupsAtLevel(size_t level) const;

  uint64_t u_;
  uint32_t degree_bits_;
  std::vector<GroupCountSketch> levels_;
  std::vector<uint64_t> level_offsets_;  // flat counter index base per level
};

}  // namespace wavemr

#endif  // WAVEMR_SKETCH_WAVELET_GCS_H_
