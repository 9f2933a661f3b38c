#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "approx/send_sketch.h"
#include "core/bitops.h"
#include "core/rng.h"
#include "data/frequency.h"
#include "histogram/builder.h"
#include "serve/estimator.h"
#include "sketch/wavelet_gcs.h"
#include "wavelet/topk.h"

namespace wavemr {
namespace {

ZipfDataset SkewedDataset() {
  ZipfDatasetOptions opt;
  opt.num_records = 30000;
  opt.domain_size = 1 << 10;
  opt.alpha = 1.3;  // strongly skewed: few dominant coefficients
  opt.num_splits = 8;
  opt.seed = 31;
  return ZipfDataset(opt);
}

// The sketch options Send-Sketch's mappers use: the build's GCS options
// with the sketch seed it derives from the run seed.
WaveletGcsOptions SendSketchGcs(const BuildOptions& opt) {
  WaveletGcsOptions gcs = opt.gcs;
  gcs.seed = Mix64(opt.seed ^ 0x9c75e5eed123ULL);
  return gcs;
}

TEST(SendSketchTest, SseBetweenIdealAndTotalEnergy) {
  ZipfDataset ds = SkewedDataset();
  std::vector<WCoeff> truth = TrueCoefficients(ds);
  BuildOptions opt;
  opt.k = 10;
  opt.gcs.total_bytes = 512 * 1024;
  opt.gcs.reps = 5;
  auto result = BuildWaveletHistogram(ds, AlgorithmKind::kSendSketch, opt);
  ASSERT_TRUE(result.ok());
  double sse = SseAgainstTrueCoefficients(result->ToSnapshot(), truth);
  double ideal = IdealSse(truth, opt.k);
  double energy = TotalEnergy(truth);
  EXPECT_GE(sse, ideal * (1 - 1e-9));
  // A reasonable sketch recovers most of the top-k energy on skewed data.
  EXPECT_LT(sse, 0.5 * energy);
}

TEST(SendSketchTest, CommunicationIsNonzeroCountersTimesEntryBytes) {
  ZipfDataset ds = SkewedDataset();
  BuildOptions opt;
  opt.k = 10;
  opt.gcs.total_bytes = 64 * 1024;
  auto result = BuildWaveletHistogram(ds, AlgorithmKind::kSendSketch, opt);
  ASSERT_TRUE(result.ok());
  const RoundStats& round = result->stats.rounds[0];
  EXPECT_EQ(round.shuffle_bytes, round.shuffle_pairs * 12);
  // Bounded by m * total counters.
  uint64_t counters = WaveletGcs(ds.info().domain_size, opt.gcs).NumCounters();
  EXPECT_LE(round.shuffle_pairs, ds.info().num_splits * counters);
  EXPECT_GT(round.shuffle_pairs, 0u);
}

TEST(SendSketchTest, CommunicationIndependentOfN) {
  // Sketch size depends on u, not n: doubling records leaves the per-split
  // sketch size capped by the counter count.
  ZipfDatasetOptions small;
  small.num_records = 10000;
  small.domain_size = 1 << 10;
  small.num_splits = 8;
  ZipfDatasetOptions big = small;
  big.num_records = 40000;
  BuildOptions opt;
  opt.gcs.total_bytes = 32 * 1024;
  auto a = BuildWaveletHistogram(ZipfDataset(small), AlgorithmKind::kSendSketch, opt);
  auto b = BuildWaveletHistogram(ZipfDataset(big), AlgorithmKind::kSendSketch, opt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Within 2x of each other (both near saturation of the sketch).
  EXPECT_LT(b->stats.TotalCommBytes(), 2 * a->stats.TotalCommBytes() + 1024);
}

TEST(SendSketchTest, ShipsNoMoreCountersThanPerKeySketches) {
  // Oracle: each split sketched the per-key way, one UpdateData per distinct
  // key, with the hash functions Send-Sketch draws. The mapper's counters
  // are the same sums without rounding residues, so it never ships more
  // nonzero counters.
  for (uint64_t seed : {3, 17, 29, 41}) {
    ZipfDatasetOptions zopt;
    zopt.num_records = 20000;
    zopt.domain_size = 1 << 12;
    zopt.alpha = 1.1;
    zopt.num_splits = 6;
    zopt.seed = seed;
    ZipfDataset ds(zopt);
    BuildOptions opt;
    opt.k = 10;
    opt.seed = seed;
    opt.gcs.total_bytes = 64 * 1024;
    auto result = BuildWaveletHistogram(ds, AlgorithmKind::kSendSketch, opt);
    ASSERT_TRUE(result.ok());

    const WaveletGcsOptions gcs = SendSketchGcs(opt);
    uint64_t oracle_pairs = 0;
    for (uint64_t j = 0; j < ds.info().num_splits; ++j) {
      WaveletGcs sketch(ds.info().domain_size, gcs);
      for (const auto& [key, count] : ToSparseVector(BuildSplitFrequencyMap(ds, j))) {
        sketch.UpdateData(key, count);
      }
      oracle_pairs += sketch.NonzeroCounters();
    }
    EXPECT_LE(result->stats.rounds[0].shuffle_pairs, oracle_pairs)
        << "seed " << seed;
  }
}

TEST(SendSketchTest, ShipsExactlyTheTrulyNonzeroCounters) {
  // Exact oracle: a coefficient with support 2^b is d / 2^(b/2) for the
  // integer d = (right count - left count), so each counter of a split is
  // X + Y / sqrt(2) for dyadic X and Y, kept here as integers scaled by
  // 2^(bits/2). The counter is nonzero exactly when X or Y is, and Send-
  // Sketch must ship exactly those counters: no rounding residue of
  // cancelling coefficients, and no true counter lost.
  ZipfDatasetOptions zopt;
  zopt.num_records = 20000;
  zopt.domain_size = 1 << 12;
  zopt.alpha = 1.1;
  zopt.num_splits = 6;
  zopt.seed = 5;
  ZipfDataset ds(zopt);
  const uint64_t u = ds.info().domain_size;
  const uint32_t bits = Log2Floor(u);
  BuildOptions opt;
  opt.k = 10;
  opt.gcs.total_bytes = 8 * 1024;  // small tables: many shared cells
  auto result = BuildWaveletHistogram(ds, AlgorithmKind::kSendSketch, opt);
  ASSERT_TRUE(result.ok());

  const WaveletGcsOptions gcs = SendSketchGcs(opt);
  // Signed unit footprint of each coefficient index: (flat counter, +-1).
  std::map<uint64_t, std::vector<std::pair<uint64_t, int64_t>>> footprints;
  auto footprint = [&](uint64_t index) -> const auto& {
    auto it = footprints.find(index);
    if (it == footprints.end()) {
      WaveletGcs probe(u, gcs);
      const WCoeff unit{index, 1.0};
      probe.UpdateCoeffs({&unit, 1});
      std::vector<std::pair<uint64_t, int64_t>> cells;
      probe.ForEachNonzeroCounter([&cells](uint64_t i, double v) {
        cells.emplace_back(i, v > 0 ? 1 : -1);
      });
      it = footprints.emplace(index, std::move(cells)).first;
    }
    return it->second;
  };
  uint64_t nonzero = 0;
  for (uint64_t j = 0; j < ds.info().num_splits; ++j) {
    std::map<uint64_t, int64_t> numerators;  // coefficient index -> d
    for (const auto& [x, count] : BuildSplitFrequencyMap(ds, j)) {
      const int64_t c = static_cast<int64_t>(count);
      numerators[0] += c;
      for (uint32_t level = 0; level < bits; ++level) {
        const uint64_t block = u >> level;
        const bool right = (x % block) >= block / 2;
        numerators[(uint64_t{1} << level) + x / block] += right ? c : -c;
      }
    }
    std::map<uint64_t, std::pair<int64_t, int64_t>> cells;  // -> (X, Y)
    for (const auto& [index, d] : numerators) {
      if (d == 0) continue;
      const uint32_t b = bits - CoefficientLevel(index);
      const int64_t scaled = d << (bits / 2 - b / 2);
      for (const auto& [cell, sign] : footprint(index)) {
        (b % 2 == 0 ? cells[cell].first : cells[cell].second) += sign * scaled;
      }
    }
    for (const auto& [cell, xy] : cells) {
      if (xy.first != 0 || xy.second != 0) ++nonzero;
    }
  }
  EXPECT_EQ(result->stats.rounds[0].shuffle_pairs, nonzero);
}

TEST(SendSketchTest, DeterministicUnderFixedSeed) {
  ZipfDataset ds = SkewedDataset();
  BuildOptions opt;
  opt.k = 8;
  opt.gcs.total_bytes = 64 * 1024;
  auto a = BuildWaveletHistogram(ds, AlgorithmKind::kSendSketch, opt);
  auto b = BuildWaveletHistogram(ds, AlgorithmKind::kSendSketch, opt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->histogram.num_terms(), b->histogram.num_terms());
  for (size_t i = 0; i < a->histogram.num_terms(); ++i) {
    EXPECT_EQ(a->histogram.coefficients()[i].index,
              b->histogram.coefficients()[i].index);
  }
}

TEST(SendSketchTest, RecoversDominantCoefficient) {
  // One overwhelmingly frequent key -> its path coefficients dominate; the
  // sketch must find the average coefficient (index 0) at least.
  std::vector<std::vector<uint64_t>> splits(4);
  for (int j = 0; j < 4; ++j) splits[j].assign(2000, 5);  // all records key 5
  InMemoryDataset ds(std::move(splits), 1 << 8);
  BuildOptions opt;
  opt.k = 5;
  opt.gcs.total_bytes = 128 * 1024;
  auto result = BuildWaveletHistogram(ds, AlgorithmKind::kSendSketch, opt);
  ASSERT_TRUE(result.ok());
  std::vector<WCoeff> truth = TrueCoefficients(ds);
  std::vector<WCoeff> ideal = TopKByMagnitude(truth, opt.k);
  // The sketch's top coefficient should be the true dominant one.
  ASSERT_GE(result->histogram.num_terms(), 1u);
  std::vector<WCoeff> got = TopKByMagnitude(result->histogram.coefficients(), 1);
  EXPECT_EQ(got[0].index, ideal[0].index);
  EXPECT_NEAR(got[0].value, ideal[0].value, 0.2 * std::fabs(ideal[0].value));
}

}  // namespace
}  // namespace wavemr
