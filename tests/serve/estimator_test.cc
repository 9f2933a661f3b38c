#include "serve/estimator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "data/dataset.h"
#include "data/frequency.h"
#include "histogram/builder.h"
#include "serve/snapshot.h"
#include "wavelet/coefficient.h"
#include "wavelet/haar.h"
#include "wavelet/topk.h"

namespace wavemr {
namespace {

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

std::vector<WCoeff> AllCoeffs(const std::vector<double>& v) {
  std::vector<double> w = ForwardHaar(v);
  std::vector<WCoeff> out;
  for (uint64_t i = 0; i < w.size(); ++i) {
    if (w[i] != 0.0) out.push_back({i, w[i]});
  }
  return out;
}

HistogramSnapshot RandomSnapshot(uint64_t u, size_t k, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(u);
  for (double& x : v) x = 100.0 * rng.NextDouble();
  v[1] = 900.0;
  v[u - 2] = 650.0;
  return HistogramSnapshot::FromCoefficients(u, TopKByMagnitude(AllCoeffs(v), k));
}

// The pre-snapshot WaveletHistogram estimators: a straight index-ascending
// sweep over every retained coefficient. The serve estimator must reproduce
// these bit for bit (off-path terms multiply a +-0.0 basis factor, which
// never perturbs an IEEE accumulator started at +0.0).
double NaivePoint(const HistogramSnapshot& snap, uint64_t x) {
  double est = 0.0;
  for (const WCoeff& c : snap.Coefficients()) {
    est += c.value * BasisValue(c.index, x, snap.domain_size());
  }
  return est;
}

double NaiveRange(const HistogramSnapshot& snap, uint64_t lo, uint64_t hi) {
  double est = 0.0;
  for (const WCoeff& c : snap.Coefficients()) {
    est += c.value * BasisRangeSum(c.index, lo, hi, snap.domain_size());
  }
  return est;
}

// The pre-O(log u) serve RangeSum: per level, every retained coefficient from
// the block holding lo through the block holding hi-1, including the interior
// blocks whose basis range sum is exactly +0.0. RangeSum now skips those; it
// must still match this loop bit for bit.
double LevelRunRange(const HistogramSnapshot& snap, uint64_t lo, uint64_t hi) {
  const uint64_t u = snap.domain_size();
  double est = 0.0;
  if (lo >= hi) return est;
  const std::vector<uint64_t>& idx = snap.indices();
  const std::vector<double>& val = snap.values();
  if (snap.has_average()) est += val[0] * BasisRangeSum(0, lo, hi, u);
  for (uint32_t j = 0; j < snap.num_levels(); ++j) {
    auto [first, last] = snap.LevelRange(j);
    const uint64_t block = u >> j;
    const uint64_t lo_idx = (uint64_t{1} << j) + lo / block;
    const uint64_t hi_idx = (uint64_t{1} << j) + (hi - 1) / block;
    for (size_t pos = first; pos < last; ++pos) {
      if (idx[pos] >= lo_idx && idx[pos] <= hi_idx) {
        est += val[pos] * BasisRangeSum(idx[pos], lo, hi, u);
      }
    }
  }
  return est;
}

// The old inline SSE formula: start from "drop everything" (total energy),
// then for each kept coefficient, in index-ascending order, swap w^2 for
// (w - what)^2. The serve estimator promises this exact accumulation order.
double NaiveSse(const HistogramSnapshot& snap,
                const std::vector<WCoeff>& truth) {
  std::unordered_map<uint64_t, double> by_index;
  double sse = 0.0;
  for (const WCoeff& t : truth) {
    by_index.emplace(t.index, t.value);
    sse += t.value * t.value;
  }
  for (const WCoeff& c : snap.Coefficients()) {
    auto it = by_index.find(c.index);
    double w = it == by_index.end() ? 0.0 : it->second;
    sse -= w * w;
    double d = w - c.value;
    sse += d * d;
  }
  return sse;
}

TEST(ServeEstimatorTest, PointEstimateBitIdenticalToNaiveSweep) {
  for (uint64_t seed : {1u, 7u, 19u}) {
    HistogramSnapshot snap = RandomSnapshot(256, 24, seed);
    for (uint64_t x = 0; x < snap.domain_size(); ++x) {
      ASSERT_EQ(Bits(PointEstimate(snap, x)), Bits(NaivePoint(snap, x)))
          << "seed=" << seed << " x=" << x;
    }
  }
}

TEST(ServeEstimatorTest, RangeSumBitIdenticalToNaiveSweep) {
  HistogramSnapshot snap = RandomSnapshot(128, 17, 23);
  const uint64_t u = snap.domain_size();
  for (uint64_t lo = 0; lo <= u; lo += 5) {
    for (uint64_t hi = lo; hi <= u; hi += 7) {
      ASSERT_EQ(Bits(RangeSum(snap, lo, hi)), Bits(NaiveRange(snap, lo, hi)))
          << "lo=" << lo << " hi=" << hi;
    }
  }
  // Degenerate and full ranges.
  EXPECT_EQ(Bits(RangeSum(snap, 0, 0)), Bits(NaiveRange(snap, 0, 0)));
  EXPECT_EQ(Bits(RangeSum(snap, 0, u)), Bits(NaiveRange(snap, 0, u)));
  EXPECT_EQ(Bits(RangeSum(snap, u, u)), Bits(NaiveRange(snap, u, u)));
}

TEST(ServeEstimatorTest, RangeSumBitIdenticalToLevelRunLoop) {
  constexpr uint64_t u = 1024;
  // Dense (every block retained, so interior blocks really are skipped) and
  // sparse synopses, each with and without the average coefficient.
  std::vector<HistogramSnapshot> snaps;
  for (size_t k : {size_t{u}, size_t{40}}) {
    HistogramSnapshot with_avg = RandomSnapshot(u, k, 31 + k);
    ASSERT_TRUE(with_avg.has_average()) << "k=" << k;
    std::vector<WCoeff> details = with_avg.Coefficients();
    details.erase(details.begin());
    snaps.push_back(HistogramSnapshot::FromCoefficients(u, details));
    ASSERT_FALSE(snaps.back().has_average());
    snaps.push_back(std::move(with_avg));
  }

  std::vector<std::pair<uint64_t, uint64_t>> ranges = {
      {0, 0}, {u, u}, {17, 17}, {0, u}, {0, 1}, {u - 1, u}, {0, u / 2},
      {u / 2, u}, {1, u - 1}};
  for (uint64_t x : {0ul, 1ul, 511ul, 512ul, 1023ul}) ranges.push_back({x, x + 1});
  for (uint64_t block = 2; block <= u; block *= 2) {  // block-aligned, every level
    ranges.push_back({block, std::min(u, 3 * block)});
    ranges.push_back({u - block, u});
    ranges.push_back({block / 2, u - block / 2});
  }
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t a = rng.NextBounded(u + 1);
    const uint64_t b = rng.NextBounded(u + 1);
    ranges.push_back({std::min(a, b), std::max(a, b)});
  }

  for (size_t s = 0; s < snaps.size(); ++s) {
    for (auto [lo, hi] : ranges) {
      const uint64_t got = Bits(RangeSum(snaps[s], lo, hi));
      ASSERT_EQ(got, Bits(LevelRunRange(snaps[s], lo, hi)))
          << "snapshot " << s << " lo=" << lo << " hi=" << hi;
      ASSERT_EQ(got, Bits(NaiveRange(snaps[s], lo, hi)))
          << "snapshot " << s << " lo=" << lo << " hi=" << hi;
    }
  }
}

TEST(ServeEstimatorTest, SseBitIdenticalToInlineFormula) {
  Rng rng(77);
  std::vector<double> v(64);
  for (double& x : v) x = 50.0 * rng.NextDouble();
  std::vector<WCoeff> truth = AllCoeffs(v);
  for (size_t k : {0ul, 1ul, 5ul, 16ul, truth.size()}) {
    HistogramSnapshot snap =
        HistogramSnapshot::FromCoefficients(64, TopKByMagnitude(truth, k));
    EXPECT_EQ(Bits(SseAgainstTrueCoefficients(snap, truth)),
              Bits(NaiveSse(snap, truth)))
        << "k=" << k;
  }
}

TEST(ServeEstimatorTest, ReconstructMatchesPointEstimates) {
  HistogramSnapshot snap = RandomSnapshot(64, 12, 5);
  std::vector<double> recon = Reconstruct(snap);
  ASSERT_EQ(recon.size(), snap.domain_size());
  for (uint64_t x = 0; x < snap.domain_size(); ++x) {
    EXPECT_NEAR(recon[x], PointEstimate(snap, x), 1e-9);
  }
}

TEST(ServeEstimatorTest, EmptySnapshotEstimatesZero) {
  HistogramSnapshot empty;
  EXPECT_EQ(PointEstimate(empty, 0), 0.0);
  EXPECT_EQ(RangeSum(empty, 0, 1), 0.0);
}

// Range-sum consistency across the full algorithm matrix: for every one of
// the seven build paths, serving RangeSum from the snapshot must agree with
// brute-force partial sums of the snapshot's own reconstruction.
TEST(ServeEstimatorTest, RangeSumConsistentForAllSevenAlgorithms) {
  ZipfDatasetOptions data_opts;
  data_opts.num_records = 20000;
  data_opts.domain_size = 1024;
  data_opts.num_splits = 8;
  data_opts.seed = 11;
  ZipfDataset dataset(data_opts);

  BuildOptions options;
  options.k = 24;
  options.seed = 11;

  const AlgorithmKind kinds[] = {
      AlgorithmKind::kSendV,     AlgorithmKind::kSendCoef,
      AlgorithmKind::kHWTopk,    AlgorithmKind::kBasicS,
      AlgorithmKind::kImprovedS, AlgorithmKind::kTwoLevelS,
      AlgorithmKind::kSendSketch,
  };
  for (AlgorithmKind kind : kinds) {
    auto result = BuildWaveletHistogram(dataset, kind, options);
    ASSERT_TRUE(result.ok())
        << AlgorithmName(kind) << ": " << result.status().ToString();
    HistogramSnapshot snap = result->ToSnapshot();
    std::vector<double> recon = Reconstruct(snap);
    std::vector<double> prefix(recon.size() + 1, 0.0);
    std::partial_sum(recon.begin(), recon.end(), prefix.begin() + 1);
    const uint64_t u = snap.domain_size();
    for (uint64_t lo = 0; lo < u; lo += 111) {
      for (uint64_t hi = lo; hi <= u; hi += 97) {
        double brute = prefix[hi] - prefix[lo];
        EXPECT_NEAR(RangeSum(snap, lo, hi), brute, 1e-6 * (1.0 + std::abs(brute)))
            << AlgorithmName(kind) << " lo=" << lo << " hi=" << hi;
      }
    }
    for (uint64_t x = 0; x < u; x += 113) {
      EXPECT_NEAR(PointEstimate(snap, x), recon[x], 1e-9)
          << AlgorithmName(kind) << " x=" << x;
    }
  }
}

}  // namespace
}  // namespace wavemr
