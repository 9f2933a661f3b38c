#ifndef WAVEMR_SERVE_SNAPSHOT_H_
#define WAVEMR_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/serialize.h"
#include "core/status.h"
#include "wavelet/coefficient.h"
#include "wavelet/histogram.h"

namespace wavemr {

/// An immutable, query-optimized view of a k-term wavelet synopsis -- the
/// object the serving layer publishes and answers queries from.
///
/// Layout: the retained coefficients are stored as two parallel arrays
/// (indices ascending, values aligned) -- which is exactly the level-major
/// order of the error tree, so each detail level j occupies one contiguous
/// slice [level 2^j, 2^(j+1)) of the arrays. level_offsets() exposes the
/// slice boundaries; a point estimate binary-searches one coefficient per
/// level of the root-to-leaf path (O(log u * log k_level)), a range sum only
/// visits the per-level index runs whose supports overlap the range. A
/// precomputed magnitude ordering makes top-coefficient queries O(answer).
///
/// Snapshots never mutate after construction: every thread may read one
/// concurrently with no synchronization. Versioning is owned by
/// SnapshotRegistry (registry.h); serialization is the fixed-width
/// little-endian framing of core/serialize.h.
/// Provenance carried along with a snapshot for the stats/version query.
struct SnapshotMetadata {
  std::string algorithm;           // display name, e.g. "TwoLevel-S"
  uint64_t build_comm_bytes = 0;   // simulated wire cost of the build
  double build_sim_seconds = 0.0;  // simulated build running time
};

class HistogramSnapshot {
 public:
  using Metadata = SnapshotMetadata;

  /// An empty synopsis over the trivial domain (estimates are all zero).
  HistogramSnapshot() : u_(1) { BuildIndexes(); }

  /// coeffs need not be sorted; u must be a power of two, indices < u and
  /// unique (the builder's synopses satisfy both by construction).
  static HistogramSnapshot FromCoefficients(uint64_t u,
                                            std::vector<WCoeff> coeffs,
                                            Metadata metadata = Metadata());

  static HistogramSnapshot FromHistogram(const WaveletHistogram& histogram,
                                         Metadata metadata = Metadata());

  uint64_t domain_size() const { return u_; }
  /// log2(u): number of detail levels in the error tree.
  uint32_t num_levels() const;
  size_t num_terms() const { return indices_.size(); }
  const Metadata& metadata() const { return meta_; }

  /// Parallel coefficient arrays, ascending by index.
  const std::vector<uint64_t>& indices() const { return indices_; }
  const std::vector<double>& values() const { return values_; }

  /// Position range [first, second) of detail level j (indices in
  /// [2^j, 2^(j+1))). The overall-average coefficient (index 0), when
  /// retained, sits at position 0; has_average() tells.
  std::pair<size_t, size_t> LevelRange(uint32_t level) const;
  bool has_average() const { return !indices_.empty() && indices_[0] == 0; }

  /// Position of `index` in the arrays, or npos when not retained.
  static constexpr size_t npos = static_cast<size_t>(-1);
  size_t FindIndex(uint64_t index) const;

  /// The `count` largest-magnitude coefficients, magnitude-descending
  /// (ties: lower index first). count is clamped to num_terms().
  std::vector<WCoeff> TopCoefficients(size_t count) const;

  /// The coefficients as WCoeffs (index-ascending), e.g. to rebuild a
  /// WaveletHistogram.
  std::vector<WCoeff> Coefficients() const;

  // ---- binary serialization (core/serialize.h framing) ----

  void SerializeTo(Serializer* out) const;
  std::string Serialize() const;
  /// Rejects truncated / corrupt / wrong-magic input with InvalidArgument
  /// instead of crashing -- snapshot bytes cross process boundaries.
  static StatusOr<HistogramSnapshot> Deserialize(const std::string& bytes);

  /// Crash-safe save: writes `path`.tmp in the same directory, fsyncs it,
  /// renames it over `path` and fsyncs the directory. Any failure removes
  /// the temp file, returns IOError and leaves the previous `path` intact.
  /// Failpoint sites: snapshot.write.{open,write,sync,rename}.
  Status WriteFile(const std::string& path) const;
  static StatusOr<HistogramSnapshot> ReadFile(const std::string& path);

 private:
  void BuildIndexes();  // level offsets + magnitude order; CHECKs invariants

  uint64_t u_;
  std::vector<uint64_t> indices_;  // ascending
  std::vector<double> values_;
  /// level_offsets_[l] = first position with index >= 2^l... precisely:
  /// boundary 0 is 0; boundary l+1 is the first position whose index >= 2^l.
  /// Size num_levels()+2; detail level j = [boundary[j+1], boundary[j+2]).
  std::vector<size_t> level_offsets_;
  std::vector<uint32_t> magnitude_order_;  // positions, |value| descending
  Metadata meta_;
};

}  // namespace wavemr

#endif  // WAVEMR_SERVE_SNAPSHOT_H_
