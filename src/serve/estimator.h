#ifndef WAVEMR_SERVE_ESTIMATOR_H_
#define WAVEMR_SERVE_ESTIMATOR_H_

#include <cstdint>
#include <vector>

#include "serve/snapshot.h"
#include "wavelet/coefficient.h"

namespace wavemr {

/// The single implementation of synopsis estimation math. Every consumer --
/// the query server, the bench figures' SSE columns, the CLI's --evaluate,
/// the tests -- routes through these functions, so an estimate served over
/// the wire is bit-identical to one computed next to the builder.
///
/// All of them are pure reads of an immutable snapshot: safe to call from
/// any number of threads concurrently.
///
/// Bit-identity contract: PointEstimate and RangeSum return exactly the
/// bits of the naive index-ascending loop
///     est = 0; for (i, w) in coeffs: est += w * Basis{Value,RangeSum}(i, ..)
/// (the pre-snapshot WaveletHistogram members). The error-tree layout only
/// lets them skip terms whose basis factor is exactly +-0.0, which never
/// changes an IEEE accumulator that starts at +0.0; estimator tests pin
/// this bit for bit.

/// Estimated frequency of key x. O(log u) lookups along the root-to-leaf
/// error-tree path instead of the naive O(k) sweep.
double PointEstimate(const HistogramSnapshot& snapshot, uint64_t x);

/// Estimated sum of frequencies over [lo, hi). Per level, only the (at most
/// two) coefficients whose supports contain lo or hi-1 can contribute; each
/// is found by binary search: O(log u * log k).
double RangeSum(const HistogramSnapshot& snapshot, uint64_t lo, uint64_t hi);

/// Full reconstructed frequency vector (length u) via the dense inverse
/// transform; O(u), intended for small domains and testing.
std::vector<double> Reconstruct(const HistogramSnapshot& snapshot);

/// Sum of squared errors between the signal the snapshot represents and the
/// true signal whose complete (nonzero) coefficient set is `true_coeffs`.
/// By Parseval: SSE = sum_{kept i} (w_i - what_i)^2 + sum_{dropped i} w_i^2.
double SseAgainstTrueCoefficients(const HistogramSnapshot& snapshot,
                                  const std::vector<WCoeff>& true_coeffs);

}  // namespace wavemr

#endif  // WAVEMR_SERVE_ESTIMATOR_H_
