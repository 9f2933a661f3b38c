#ifndef WAVEMR_SKETCH_GROUP_COUNT_SKETCH_H_
#define WAVEMR_SKETCH_GROUP_COUNT_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/hash.h"

namespace wavemr {

/// Group-Count Sketch (Cormode, Garofalakis, Sacharidis; EDBT'06): estimates
/// the L2^2 energy of *groups* of items. Each of `reps` repetitions hashes a
/// group to one of `buckets`, and the items of a group to one of `subbuckets`
/// inside it, with a 4-wise sign:
///     counters[rep][h_rep(group)][f_rep(item)] += sign_rep(item) * value.
/// GroupEnergy(g) = median over reps of the summed squares of g's bucket.
/// Linear in the input, so local sketches merge by addition.
///
/// The update kernel is the map-side unit of cost in Send-Sketch, so it is
/// laid out for throughput: each repetition's three polynomial hashes live
/// in one flat 64-byte record (no per-call vector indirection), Update
/// resolves the repetition's bucket row pointer once, and UpdateBatch
/// amortizes the group hash across runs of items sharing a group (sorted
/// batches -- the wavelet hierarchy's natural order -- hash each group
/// once per repetition). Item hashes are not cached: Send-Sketch feeds each
/// coefficient index at most once per sketch, so a cache could only miss.
class GroupCountSketch {
 public:
  /// Median buffers in the query path live on the stack; reps is tiny in
  /// every published configuration (t = 3..7).
  static constexpr size_t kMaxReps = 64;

  GroupCountSketch(uint64_t seed, size_t reps, size_t buckets, size_t subbuckets);

  void Update(uint64_t group, uint64_t item, double value);

  /// Bulk weighted update: applies values[k] to items[k], whose group is
  /// items[k] >> group_shift (the dyadic grouping the wavelet hierarchy
  /// uses). Ascending items maximize group-hash reuse; any order is correct.
  void UpdateBatch(const uint64_t* items, const double* values, size_t n,
                   uint32_t group_shift);

  /// Estimate of sum over items i in `group` of value(i)^2.
  double GroupEnergy(uint64_t group) const;

  /// Count-Sketch-style point estimate of a single item's value (use when
  /// groups are singletons, i.e. at the leaf level of a hierarchy).
  double EstimateItem(uint64_t group, uint64_t item) const;

  void Merge(const GroupCountSketch& other);

  size_t reps() const { return reps_; }
  size_t buckets() const { return buckets_; }
  size_t subbuckets() const { return subbuckets_; }
  size_t NumCounters() const { return table_.size(); }
  uint64_t NonzeroCounters() const;
  double CounterAt(size_t flat_index) const { return table_[flat_index]; }
  void AddToCounter(size_t flat_index, double delta) { table_[flat_index] += delta; }

 private:
  template <bool kPow2Sub>
  void UpdateBatchImpl(const uint64_t* items, const double* values, size_t n,
                       uint32_t group_shift);

  /// SIMD-tier batch update (core/simd.h): hashes each block's items through
  /// the active vector kernel 4 lanes at a time, then applies the adds in the
  /// scalar loop's exact per-cell order, so the table stays bit-identical to
  /// UpdateBatchImpl for any input. Requires subbuckets_ <= 2^30 (the packed
  /// slot bound); UpdateBatch falls back to the scalar path otherwise.
  void UpdateBatchSimd(const struct SimdKernels& k, const uint64_t* items,
                       const double* values, size_t n, uint32_t group_shift);

  /// One repetition's hash functions, flattened: the 2-wise group and item
  /// polynomials and the 4-wise sign polynomial, coefficients c0-first.
  /// Exactly the coefficients PolyHash would draw, so hash values (and
  /// therefore sketch contents) are independent of the kernel layout.
  struct RepHash {
    uint64_t g[2];
    uint64_t i[2];
    uint64_t s[4];
  };

  /// Structure-of-arrays copy of rep_hash_, padded to a multiple of 4
  /// repetitions (pad lanes replicate the last rep; their results are
  /// discarded), so the query path can feed coefficient lanes straight into
  /// the 4-wide hash kernels without per-call marshalling.
  struct RepHashLanes {
    std::vector<uint64_t> g0, g1, i0, i1, s0, s1, s2, s3;
  };

  size_t reps_;
  size_t buckets_;
  size_t subbuckets_;
  uint64_t seed_;
  std::vector<RepHash> rep_hash_;
  RepHashLanes lanes_;
  std::vector<double> table_;  // reps x buckets x subbuckets
};

}  // namespace wavemr

#endif  // WAVEMR_SKETCH_GROUP_COUNT_SKETCH_H_
