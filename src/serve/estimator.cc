#include "serve/estimator.h"

#include <algorithm>
#include <unordered_map>

#include "core/logging.h"
#include "wavelet/haar.h"

namespace wavemr {

double PointEstimate(const HistogramSnapshot& snapshot, uint64_t x) {
  const uint64_t u = snapshot.domain_size();
  WAVEMR_CHECK_LT(x, u);
  const std::vector<uint64_t>& idx = snapshot.indices();
  const std::vector<double>& val = snapshot.values();

  // Accumulate in ascending index order -- the order the naive sweep visits
  // nonzero terms in -- so the result is bit-identical to it.
  double est = 0.0;
  if (snapshot.has_average()) est += val[0] * BasisValue(0, x, u);
  const uint32_t levels = snapshot.num_levels();
  for (uint32_t j = 0; j < levels; ++j) {
    auto [first, last] = snapshot.LevelRange(j);
    if (first == last) continue;
    // The one level-j coefficient whose support contains x.
    const uint64_t path = (uint64_t{1} << j) + (x >> (levels - j));
    auto it = std::lower_bound(idx.begin() + static_cast<ptrdiff_t>(first),
                               idx.begin() + static_cast<ptrdiff_t>(last), path);
    if (it != idx.begin() + static_cast<ptrdiff_t>(last) && *it == path) {
      const size_t pos = static_cast<size_t>(it - idx.begin());
      est += val[pos] * BasisValue(path, x, u);
    }
  }
  return est;
}

double RangeSum(const HistogramSnapshot& snapshot, uint64_t lo, uint64_t hi) {
  const uint64_t u = snapshot.domain_size();
  WAVEMR_CHECK_LE(lo, hi);
  WAVEMR_CHECK_LE(hi, u);
  double est = 0.0;
  if (lo >= hi) return est;  // every basis term of an empty range is 0
  const std::vector<uint64_t>& idx = snapshot.indices();
  const std::vector<double>& val = snapshot.values();

  if (snapshot.has_average()) est += val[0] * BasisRangeSum(0, lo, hi, u);
  const uint32_t levels = snapshot.num_levels();
  for (uint32_t j = 0; j < levels; ++j) {
    auto [first, last] = snapshot.LevelRange(j);
    if (first == last) continue;
    // Level-j supports are blocks of u/2^j keys. A block lying wholly inside
    // [lo, hi) has as many negative as positive keys in range, so its basis
    // range sum is exactly +0.0, and adding its +-0.0 term leaves `est`
    // bit-identical. Only the blocks holding lo and hi-1 can contribute;
    // they are visited in index order, as the naive sweep would.
    const uint64_t block = u >> j;
    const uint64_t lo_idx = (uint64_t{1} << j) + lo / block;
    const uint64_t hi_idx = (uint64_t{1} << j) + (hi - 1) / block;
    const auto level_end = idx.begin() + static_cast<ptrdiff_t>(last);
    auto it = idx.begin() + static_cast<ptrdiff_t>(first);
    for (const uint64_t want : {lo_idx, hi_idx}) {
      it = std::lower_bound(it, level_end, want);
      if (it != level_end && *it == want) {
        est += val[static_cast<size_t>(it - idx.begin())] *
               BasisRangeSum(want, lo, hi, u);
        ++it;  // lo_idx == hi_idx must not count the block twice
      }
    }
  }
  return est;
}

std::vector<double> Reconstruct(const HistogramSnapshot& snapshot) {
  std::vector<double> dense(snapshot.domain_size(), 0.0);
  const std::vector<uint64_t>& idx = snapshot.indices();
  const std::vector<double>& val = snapshot.values();
  for (size_t i = 0; i < idx.size(); ++i) dense[idx[i]] = val[i];
  return InverseHaar(dense);
}

double SseAgainstTrueCoefficients(const HistogramSnapshot& snapshot,
                                  const std::vector<WCoeff>& true_coeffs) {
  // Start from "drop everything" (SSE = total energy), then for each kept
  // coefficient swap w^2 for (w - what)^2. Same accumulation order as the
  // pre-snapshot implementation, so SSE figures are bit-stable across the
  // migration.
  std::unordered_map<uint64_t, double> truth;
  truth.reserve(true_coeffs.size() * 2);
  double sse = 0.0;
  for (const WCoeff& c : true_coeffs) {
    truth.emplace(c.index, c.value);
    sse += c.value * c.value;
  }
  const std::vector<uint64_t>& idx = snapshot.indices();
  const std::vector<double>& val = snapshot.values();
  for (size_t i = 0; i < idx.size(); ++i) {
    auto it = truth.find(idx[i]);
    double w = it == truth.end() ? 0.0 : it->second;
    sse -= w * w;
    double d = w - val[i];
    sse += d * d;
  }
  return sse;
}

}  // namespace wavemr
