#include "wavelet/sparse.h"

#include <algorithm>
#include <cmath>

#include "core/bitops.h"
#include "core/logging.h"
#include "core/radix_sort.h"

namespace wavemr {

namespace {

// Merges each run of equal keys into its first entry, summing the weights in
// order. Keys must be sorted.
void Coalesce(SortedSparseVector* v) {
  std::vector<uint64_t>& keys = v->keys;
  std::vector<double>& weights = v->weights;
  size_t w = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (w > 0 && keys[w - 1] == keys[i]) {
      weights[w - 1] += weights[i];
    } else {
      keys[w] = keys[i];
      weights[w] = weights[i];
      ++w;
    }
  }
  keys.resize(w);
  weights.resize(w);
}

}  // namespace

uint32_t PointUpdateFanout(uint64_t u) { return Log2Floor(u) + 1; }

SortedSparseVector CountSortedKeys(std::vector<uint64_t> keys) {
  RadixSortByKey(keys);
  SortedSparseVector v;
  v.weights.assign(keys.size(), 1.0);
  v.keys = std::move(keys);
  Coalesce(&v);
  return v;
}

std::vector<WCoeff> SparseHaarSorted(SortedSparseVector v, uint64_t u) {
  WAVEMR_DCHECK(IsPowerOfTwo(u));
  WAVEMR_DCHECK(v.keys.size() == v.weights.size());
  WAVEMR_DCHECK(v.keys.empty() || v.keys.back() < u);
  // The live nodes of the current tree depth occupy [begin, end) of the two
  // columns, ascending; each level rewrites them in place as their parents.
  uint64_t* node = v.keys.data();
  double* sum = v.weights.data();  // subtree sum of node[i]
  const size_t end = v.keys.size();
  size_t begin = 0;
  // Level j emits at most min(2^j, |v|) details, plus the average: reserving
  // that bound means the output never reallocates.
  size_t bound = 1;
  for (uint32_t j = 0; j < Log2Floor(u); ++j) {
    bound += std::min<uint64_t>(uint64_t{1} << j, end);
  }
  std::vector<WCoeff> out;
  out.reserve(bound);
  // Walking every level from its highest node down, finest level first,
  // emits the coefficients in descending index order; one reverse at the end
  // gives index order.
  for (uint32_t j = Log2Floor(u); j-- > 0;) {
    const uint64_t base = uint64_t{1} << j;
    const double sqrt_block = std::sqrt(static_cast<double>(u >> j));
    size_t w = end;
    for (size_t i = end; i > begin;) {
      const uint64_t parent = node[i - 1] >> 1;
      double left = 0.0;
      double right = 0.0;
      if (node[i - 1] & 1) right = sum[--i];
      if (i > begin && node[i - 1] == parent << 1) left = sum[--i];
      const double diff = right - left;
      if (diff != 0.0) out.push_back({base + parent, diff / sqrt_block});
      --w;
      node[w] = parent;
      sum[w] = left + right;
    }
    begin = w;
  }
  if (begin < end && sum[begin] != 0.0) {
    out.push_back({0, sum[begin] / std::sqrt(static_cast<double>(u))});
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<WCoeff> SparseHaar(const SparseVector& v, uint64_t u) {
  SortedSparseVector sorted;
  sorted.keys.reserve(v.size());
  sorted.weights.reserve(v.size());
  for (const auto& [key, weight] : v) {
    WAVEMR_DCHECK(key < u);
    sorted.keys.push_back(key);
    sorted.weights.push_back(weight);
  }
  RadixSortByKey(sorted.keys, &sorted.weights);
  Coalesce(&sorted);
  return SparseHaarSorted(std::move(sorted), u);
}

}  // namespace wavemr
