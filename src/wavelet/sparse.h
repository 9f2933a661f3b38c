#ifndef WAVEMR_WAVELET_SPARSE_H_
#define WAVEMR_WAVELET_SPARSE_H_

#include <cstdint>
#include <vector>

#include "wavelet/coefficient.h"

namespace wavemr {

/// A sparse frequency vector: (key, weight) pairs over domain [0, u), in any
/// order. Weights are doubles so the same code paths serve exact counts and
/// sampled estimates.
using SparseVector = std::vector<std::pair<uint64_t, double>>;

/// A frequency vector in key order: `keys` strictly ascending (sorted and
/// coalesced), `weights[i]` the weight of keys[i].
struct SortedSparseVector {
  std::vector<uint64_t> keys;
  std::vector<double> weights;
};

/// The frequency vector of a multiset of keys (e.g. one split's records):
/// radix-sorts them and counts each run of equal keys. No hashing.
SortedSparseVector CountSortedKeys(std::vector<uint64_t> keys);

/// Sparse forward Haar transform in O(|v| log u) time: each nonzero entry
/// touches only its error-tree path. This is the algorithm of Gilbert et al.
/// [20] that the paper uses inside mappers instead of the O(u) dense
/// transform. One bottom-up pass over the tree pairs adjacent children into
/// their parent, emits (right - left) / sqrt(block) when it is nonzero and
/// passes the subtree sum up; coefficient 0 is total / sqrt(u).
///
/// Contract:
/// - the result is the nonzero coefficients, sorted by index;
/// - each coefficient is one division of an exactly summed numerator when
///   the weights are integers (below 2^53), so integer counts give the
///   correctly rounded coefficient and exact zeros are never emitted;
/// - the result depends only on the vector, not on the order of v.
/// u must be a power of two; all keys must be < u.
std::vector<WCoeff> SparseHaarSorted(SortedSparseVector v, uint64_t u);

/// SparseHaarSorted over v after a stable sort by key; equal keys are
/// coalesced by summing their weights in v's order.
std::vector<WCoeff> SparseHaar(const SparseVector& v, uint64_t u);

/// Number of coefficient updates a point update performs (log2(u) + 1);
/// exposed so cost accounting in the MapReduce layer matches the algorithm.
uint32_t PointUpdateFanout(uint64_t u);

}  // namespace wavemr

#endif  // WAVEMR_WAVELET_SPARSE_H_
