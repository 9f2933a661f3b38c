#include "sketch/group_count_sketch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "core/rng.h"
#include "sketch/wavelet_gcs.h"
#include "wavelet/haar.h"
#include "wavelet/sparse.h"

namespace wavemr {
namespace {

TEST(GroupCountSketchTest, GroupEnergyOfHeavyGroup) {
  GroupCountSketch sketch(3, 5, 64, 8);
  // Group 4 holds items 40..44 with substantial values.
  double energy = 0.0;
  for (uint64_t i = 0; i < 5; ++i) {
    double v = 100.0 + 10.0 * static_cast<double>(i);
    sketch.Update(4, 40 + i, v);
    energy += v * v;
  }
  // Light noise in other groups.
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    uint64_t g = 10 + rng.NextBounded(50);
    sketch.Update(g, g * 100 + rng.NextBounded(10), 1.0);
  }
  EXPECT_NEAR(sketch.GroupEnergy(4), energy, 0.3 * energy);
}

TEST(GroupCountSketchTest, SingletonItemEstimate) {
  GroupCountSketch sketch(5, 5, 128, 8);
  sketch.Update(77, 77, 250.0);
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    uint64_t item = rng.NextBounded(5000);
    sketch.Update(item, item, 1.0);
  }
  EXPECT_NEAR(sketch.EstimateItem(77, 77), 250.0, 30.0);
}

TEST(GroupCountSketchTest, MergeMatchesBulk) {
  GroupCountSketch a(1, 3, 16, 4), b(1, 3, 16, 4), bulk(1, 3, 16, 4);
  for (uint64_t i = 0; i < 200; ++i) {
    (i % 2 ? a : b).Update(i / 8, i, static_cast<double>(i % 7));
    bulk.Update(i / 8, i, static_cast<double>(i % 7));
  }
  a.Merge(b);
  for (size_t i = 0; i < a.NumCounters(); ++i) {
    EXPECT_DOUBLE_EQ(a.CounterAt(i), bulk.CounterAt(i));
  }
}

TEST(GroupCountSketchTest, UpdateBatchMatchesScalarUpdatesBitForBit) {
  // The restructured kernel must be a pure layout change: a bulk update is
  // the same sequence of counter additions as the scalar loop, so tables
  // agree exactly (not just approximately).
  const uint32_t shift = 3;  // dyadic groups of 8, as in the wavelet tree
  GroupCountSketch scalar(42, 5, 32, 8), batch(42, 5, 32, 8);
  std::vector<uint64_t> items;
  std::vector<double> values;
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    items.push_back(rng.NextBounded(1 << 12));
    values.push_back(static_cast<double>(rng.NextBounded(100)) * 0.25 - 12.0);
  }
  for (size_t i = 0; i < items.size(); ++i) {
    scalar.Update(items[i] >> shift, items[i], values[i]);
  }
  batch.UpdateBatch(items.data(), values.data(), items.size(), shift);
  ASSERT_EQ(scalar.NumCounters(), batch.NumCounters());
  for (size_t i = 0; i < scalar.NumCounters(); ++i) {
    EXPECT_DOUBLE_EQ(scalar.CounterAt(i), batch.CounterAt(i)) << "counter " << i;
  }
}

TEST(GroupCountSketchTest, UpdateBatchSortedItemsReuseGroupBuckets) {
  // Ascending items trigger the group-hash reuse fast path; interleaved
  // (unsorted) items must still land identically.
  GroupCountSketch sorted(7, 3, 16, 4), shuffled(7, 3, 16, 4);
  std::vector<uint64_t> asc;
  std::vector<double> val_asc;
  for (uint64_t i = 0; i < 256; ++i) {
    asc.push_back(i);
    val_asc.push_back(1.0 + static_cast<double>(i % 5));
  }
  sorted.UpdateBatch(asc.data(), val_asc.data(), asc.size(), 2);
  // Same multiset of updates, worst-case order for the cache (alternating
  // ends), applied scalar-wise.
  for (uint64_t i = 0; i < 256; ++i) {
    uint64_t item = (i % 2 == 0) ? i / 2 : 255 - i / 2;
    shuffled.Update(item >> 2, item, 1.0 + static_cast<double>(item % 5));
  }
  for (size_t i = 0; i < sorted.NumCounters(); ++i) {
    // Same cells, same totals; order differs so allow FP-rounding slack.
    EXPECT_NEAR(sorted.CounterAt(i), shuffled.CounterAt(i),
                1e-9 * (1.0 + std::fabs(sorted.CounterAt(i))));
  }
}

TEST(GroupCountSketchTest, LargeGroupShiftMapsEverythingToGroupZero) {
  GroupCountSketch a(3, 3, 16, 4), b(3, 3, 16, 4);
  std::vector<uint64_t> items = {1, 5, 900, 12345};
  std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  a.UpdateBatch(items.data(), values.data(), items.size(), 64);
  for (size_t i = 0; i < items.size(); ++i) b.Update(0, items[i], values[i]);
  for (size_t i = 0; i < a.NumCounters(); ++i) {
    EXPECT_DOUBLE_EQ(a.CounterAt(i), b.CounterAt(i));
  }
}

// ---------------------------------------------------------------------------
// Hierarchical wavelet GCS
// ---------------------------------------------------------------------------

WaveletGcsOptions TestGcsOptions() {
  WaveletGcsOptions opt;
  opt.seed = 99;
  opt.reps = 5;
  opt.subbuckets = 8;
  opt.degree_bits = 3;            // GCS-8
  opt.total_bytes = 256 * 1024;   // generous for a small test domain
  return opt;
}

// w(index) += value through the batch entry point.
void UpdateOne(WaveletGcs* sketch, uint64_t index, double value) {
  const WCoeff c{index, value};
  sketch->UpdateCoeffs({&c, 1});
}

TEST(WaveletGcsTest, RecoversPlantedHeavyCoefficients) {
  const uint64_t u = 1024;
  WaveletGcs sketch(u, TestGcsOptions());
  // Plant heavy coefficients directly in the wavelet domain.
  std::set<uint64_t> heavy = {3, 170, 512, 900};
  for (uint64_t idx : heavy) UpdateOne(&sketch, idx, 500.0);
  Rng rng(1);
  for (int i = 0; i < 500; ++i) UpdateOne(&sketch, rng.NextBounded(u), 1.0);

  std::vector<WCoeff> top = sketch.FindTopK(4);
  ASSERT_EQ(top.size(), 4u);
  for (const WCoeff& c : top) {
    EXPECT_TRUE(heavy.count(c.index) > 0) << "unexpected index " << c.index;
    EXPECT_NEAR(c.value, 500.0, 100.0);
  }
}

TEST(WaveletGcsTest, DataDomainUpdateMatchesTransformPath) {
  // UpdateData(x, c) must produce the same coefficient estimates as the true
  // transform of the point signal c * e_x.
  const uint64_t u = 256;
  WaveletGcs sketch(u, TestGcsOptions());
  sketch.UpdateData(37, 64.0);
  std::vector<double> dense(u, 0.0);
  dense[37] = 64.0;
  std::vector<double> w = ForwardHaar(dense);
  for (uint64_t i = 0; i < u; ++i) {
    if (w[i] != 0.0) {
      EXPECT_NEAR(sketch.EstimateCoeff(i), w[i], 1e-6) << "coeff " << i;
    }
  }
}

TEST(WaveletGcsTest, MergeAndFlatCountersMatchDirectUpdates) {
  // The Send-Sketch wire path (ForEachNonzeroCounter -> AddToFlatCounter)
  // must reconstruct the merged sketch exactly.
  const uint64_t u = 512;
  WaveletGcsOptions opt = TestGcsOptions();
  WaveletGcs local1(u, opt), local2(u, opt), wire(u, opt), direct(u, opt);
  Rng rng(8);
  for (int i = 0; i < 300; ++i) {
    uint64_t x = rng.NextBounded(u);
    double c = 1.0 + rng.NextBounded(9);
    (i % 2 ? local1 : local2).UpdateData(x, c);
    direct.UpdateData(x, c);
  }
  local1.ForEachNonzeroCounter(
      [&wire](uint64_t idx, double v) { wire.AddToFlatCounter(idx, v); });
  local2.ForEachNonzeroCounter(
      [&wire](uint64_t idx, double v) { wire.AddToFlatCounter(idx, v); });
  for (uint64_t i = 0; i < u; ++i) {
    // Identical up to floating-point addition order (the wire path sums the
    // two partitions' counters in a different sequence).
    double d = direct.EstimateCoeff(i);
    EXPECT_NEAR(wire.EstimateCoeff(i), d, 1e-9 * (1.0 + std::fabs(d))) << i;
  }
}

// The error-tree path of a point update c * e_x, in ascending index order:
// the coefficients UpdateData touches.
std::vector<WCoeff> PathCoefficients(uint64_t x, double c, uint64_t u) {
  std::vector<WCoeff> path = {{0, c / std::sqrt(static_cast<double>(u))}};
  for (uint32_t j = 0; (uint64_t{1} << j) < u; ++j) {
    uint64_t block = u >> j;
    uint64_t k = x / block;
    uint64_t offset = x - k * block;
    double mag = c / std::sqrt(static_cast<double>(block));
    path.push_back({(uint64_t{1} << j) + k, (offset < block / 2) ? -mag : mag});
  }
  return path;
}

// Every counter of `sketch`, by flat index.
std::vector<double> FlatCounters(const WaveletGcs& sketch) {
  std::vector<double> out(sketch.NumCounters(), 0.0);
  sketch.ForEachNonzeroCounter([&out](uint64_t i, double v) { out[i] = v; });
  return out;
}

// The flat counters a unit update of coefficient `index` touches.
std::vector<uint64_t> Footprint(uint64_t u, const WaveletGcsOptions& opt,
                                uint64_t index) {
  WaveletGcs probe(u, opt);
  UpdateOne(&probe, index, 1.0);
  std::vector<uint64_t> cells;
  probe.ForEachNonzeroCounter([&cells](uint64_t i, double) { cells.push_back(i); });
  return cells;
}

TEST(WaveletGcsTest, BulkUpdateDataMatchesPerCoefficientPath) {
  // UpdateData feeds every level one sorted batch; the counters must be
  // exactly what applying its path one coefficient at a time produces (the
  // add order per cell is preserved: ascending coefficient index).
  const uint64_t u = 512;
  WaveletGcsOptions opt = TestGcsOptions();
  WaveletGcs bulk(u, opt), single(u, opt);
  Rng rng(77);
  std::vector<std::pair<uint64_t, double>> points;
  for (int i = 0; i < 200; ++i) {
    points.emplace_back(rng.NextBounded(u), 1.0 + rng.NextBounded(20));
  }
  for (const auto& [x, c] : points) bulk.UpdateData(x, c);
  for (const auto& [x, c] : points) {
    for (const WCoeff& w : PathCoefficients(x, c, u)) {
      UpdateOne(&single, w.index, w.value);
    }
  }
  EXPECT_EQ(FlatCounters(bulk), FlatCounters(single));
}

TEST(WaveletGcsTest, CoefficientFeedMatchesPerKeyFeed) {
  // Linearity: sketching a split's sparse coefficient vector is the same
  // sketch as one UpdateData per distinct key. Only the rounding of the
  // sums differs, so each counter agrees to 1e-12 of the absolute mass the
  // per-key feed put into it (and counters no update reaches stay 0).
  const uint64_t u = 1 << 12;
  WaveletGcsOptions opt = TestGcsOptions();
  opt.total_bytes = 32 * 1024;  // small tables: many shared cells
  for (uint64_t seed : {1, 2, 3, 4}) {
    Rng rng(seed);
    std::vector<uint64_t> keys;
    for (int i = 0; i < 3000; ++i) {
      keys.push_back(rng.NextBounded(rng.NextBounded(u) + 1));  // skewed
    }
    const SortedSparseVector v = CountSortedKeys(keys);

    WaveletGcs per_key(u, opt), per_coeff(u, opt);
    std::vector<double> mass(per_key.NumCounters(), 0.0);
    std::map<uint64_t, std::vector<uint64_t>> footprints;
    for (size_t i = 0; i < v.keys.size(); ++i) {
      per_key.UpdateData(v.keys[i], v.weights[i]);
      for (const WCoeff& w : PathCoefficients(v.keys[i], v.weights[i], u)) {
        auto it = footprints.find(w.index);
        if (it == footprints.end()) {
          it = footprints.emplace(w.index, Footprint(u, opt, w.index)).first;
        }
        for (uint64_t cell : it->second) mass[cell] += std::fabs(w.value);
      }
    }
    per_coeff.UpdateCoeffs(SparseHaarSorted(v, u));

    const std::vector<double> a = FlatCounters(per_key);
    const std::vector<double> b = FlatCounters(per_coeff);
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_LE(std::fabs(a[i] - b[i]), 1e-12 * mass[i])
          << "seed " << seed << " counter " << i;
    }
  }
}

TEST(WaveletGcsTest, ZeroCoefficientLeavesItsCellsUntouched) {
  // Equal counts on sibling keys 2i and 2i+1 make their parent detail
  // coefficient (index u/2 + i) exactly zero. SparseHaarSorted emits no
  // exact zero, so the coefficient feed never touches its cells: every cell
  // only a zero coefficient hashes to stays exactly 0.
  const uint64_t u = 1 << 10;
  WaveletGcsOptions opt = TestGcsOptions();
  std::vector<uint64_t> keys;
  std::vector<uint64_t> zeros;
  for (uint64_t i = 0; i < u / 2; i += 37) {
    for (uint64_t r = 0; r < 3 + i % 5; ++r) {
      keys.push_back(2 * i);
      keys.push_back(2 * i + 1);
    }
    zeros.push_back(u / 2 + i);
  }
  for (uint64_t r = 0; r < 7; ++r) keys.push_back(300);  // an unpaired key
  const std::vector<WCoeff> coeffs = SparseHaarSorted(CountSortedKeys(keys), u);
  WaveletGcs sketch(u, opt);
  sketch.UpdateCoeffs(coeffs);
  const std::vector<double> counters = FlatCounters(sketch);

  std::set<uint64_t> reached;
  for (const WCoeff& c : coeffs) {
    EXPECT_NE(c.value, 0.0) << c.index;
    for (uint64_t cell : Footprint(u, opt, c.index)) reached.insert(cell);
  }
  size_t checked = 0;
  for (uint64_t z : zeros) {
    for (uint64_t cell : Footprint(u, opt, z)) {
      if (reached.count(cell) > 0) continue;
      EXPECT_EQ(counters[cell], 0.0) << "coefficient " << z << " cell " << cell;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(WaveletGcsTest, EnergyEstimateTracksParseval) {
  const uint64_t u = 256;
  WaveletGcs sketch(u, TestGcsOptions());
  double energy = 0.0;
  for (uint64_t idx = 0; idx < 32; ++idx) {
    double v = static_cast<double>(idx) * 3.0;
    UpdateOne(&sketch, idx, v);
    energy += v * v;
  }
  EXPECT_NEAR(sketch.EstimateEnergy(), energy, 0.35 * energy);
}

TEST(WaveletGcsTest, PaperSpaceRuleApplied) {
  WaveletGcsOptions opt;
  opt.total_bytes = 0;  // paper rule: 20KB * log2(u)
  WaveletGcs sketch(1 << 20, opt);
  EXPECT_GT(sketch.NumCounters() * sizeof(double), 200u * 1024);
  EXPECT_GT(sketch.CounterUpdatesPerDataPoint(), 0u);
}

TEST(WaveletGcsTest, CounterUpdateCostFormula) {
  WaveletGcsOptions opt = TestGcsOptions();
  WaveletGcs sketch(1024, opt);
  // log2(1024)+1 = 11 coefficients, each touching every level in each rep.
  EXPECT_EQ(sketch.CounterUpdatesPerDataPoint(),
            11u * sketch.num_levels() * opt.reps);
}

}  // namespace
}  // namespace wavemr
