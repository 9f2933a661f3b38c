#include "wavelet/sparse.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "core/rng.h"
#include "wavelet/haar.h"

namespace wavemr {
namespace {

// Oracle: the key-major error-tree walk. Adds the contribution of the point
// update v(x) += weight to every coefficient on x's root-to-leaf path, in
// the order the updates arrive.
void AccumulatePointUpdate(uint64_t x, double weight, uint64_t u,
                           std::unordered_map<uint64_t, double>* coeffs) {
  const uint32_t levels = Log2Floor(u);
  (*coeffs)[0] += weight / std::sqrt(static_cast<double>(u));
  for (uint32_t j = 0; j < levels; ++j) {
    const uint64_t block = u >> j;
    const uint64_t k = x / block;
    const double mag = weight / std::sqrt(static_cast<double>(block));
    (*coeffs)[(uint64_t{1} << j) + k] += (x - k * block < block / 2) ? -mag : mag;
  }
}

// Oracle for integer counts: each coefficient's numerator summed exactly in
// int64 (right half minus left half of its block), divided once by
// sqrt(block). Only the nonzero numerators are returned, by index.
std::map<uint64_t, double> IntegerOracle(const std::vector<std::pair<uint64_t, int64_t>>& v,
                                         uint64_t u) {
  const uint32_t levels = Log2Floor(u);
  std::map<uint64_t, int64_t> numerators;
  for (const auto& [x, count] : v) {
    numerators[0] += count;
    for (uint32_t j = 0; j < levels; ++j) {
      const uint64_t block = u >> j;
      const uint64_t k = x / block;
      numerators[(uint64_t{1} << j) + k] += (x - k * block < block / 2) ? -count : count;
    }
  }
  std::map<uint64_t, double> out;
  for (const auto& [index, numerator] : numerators) {
    if (numerator == 0) continue;
    const uint64_t block = index == 0 ? u : u >> CoefficientLevel(index);
    out[index] = static_cast<double>(numerator) / std::sqrt(static_cast<double>(block));
  }
  return out;
}

void ExpectBitIdentical(const std::vector<WCoeff>& a, const std::vector<WCoeff>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].index, b[i].index) << "position " << i;
    ASSERT_EQ(a[i].value, b[i].value) << "index " << a[i].index;  // exact
  }
}

struct SparseCase {
  uint64_t u;
  uint64_t nonzeros;
  uint64_t seed;
};

class SparseVsDenseTest : public ::testing::TestWithParam<SparseCase> {};

TEST_P(SparseVsDenseTest, SparseEqualsDense) {
  const SparseCase& c = GetParam();
  Rng rng(c.seed);
  std::unordered_map<uint64_t, double> entries;
  for (uint64_t i = 0; i < c.nonzeros; ++i) {
    entries[rng.NextBounded(c.u)] += 1.0 + rng.NextBounded(50);
  }
  SparseVector v(entries.begin(), entries.end());

  std::vector<double> dense(c.u, 0.0);
  for (const auto& [key, val] : entries) dense[key] = val;
  std::vector<double> expect = ForwardHaar(dense);

  std::vector<WCoeff> got = SparseHaar(v, c.u);
  std::unordered_map<uint64_t, double> got_map;
  for (const WCoeff& w : got) got_map[w.index] = w.value;

  for (uint64_t i = 0; i < c.u; ++i) {
    double g = got_map.count(i) ? got_map[i] : 0.0;
    ASSERT_NEAR(g, expect[i], 1e-8) << "coefficient " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SparseVsDenseTest,
    ::testing::Values(SparseCase{4, 1, 1}, SparseCase{8, 3, 2}, SparseCase{64, 10, 3},
                      SparseCase{256, 50, 4}, SparseCase{1024, 200, 5},
                      SparseCase{4096, 1, 6}, SparseCase{4096, 4096, 7}));

TEST(SparseHaarTest, OutputSortedAndBounded) {
  SparseVector v = {{5, 2.0}, {100, 1.0}, {900, 4.0}};
  std::vector<WCoeff> coeffs = SparseHaar(v, 1024);
  // At most |v| * (log2 u + 1) nonzero coefficients.
  EXPECT_LE(coeffs.size(), v.size() * (Log2Floor(1024) + 1));
  for (size_t i = 1; i < coeffs.size(); ++i) {
    EXPECT_LT(coeffs[i - 1].index, coeffs[i].index);
  }
}

TEST(SparseHaarTest, PointUpdateFanout) {
  EXPECT_EQ(PointUpdateFanout(1), 1u);
  EXPECT_EQ(PointUpdateFanout(2), 2u);
  EXPECT_EQ(PointUpdateFanout(1024), 11u);
}

TEST(SparseHaarTest, AccumulateIsAdditive) {
  const uint64_t u = 128;
  std::unordered_map<uint64_t, double> acc;
  AccumulatePointUpdate(10, 3.0, u, &acc);
  AccumulatePointUpdate(10, -3.0, u, &acc);
  for (const auto& [idx, val] : acc) EXPECT_NEAR(val, 0.0, 1e-12);
}

TEST(SparseHaarTest, EmptyInputYieldsNothing) {
  EXPECT_TRUE(SparseHaar({}, 64).empty());
}

TEST(SparseHaarTest, IntegerWeightsMatchInt64OracleBitwise) {
  // Exact counts: every emitted coefficient is the correctly rounded value
  // of its exact integer numerator, and exact zeros are never emitted.
  for (uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    const uint64_t u = 4096;
    std::map<uint64_t, int64_t> counts;
    for (int i = 0; i < 600; ++i) {
      // Small domain slices and repeated counts make exact cancellations
      // (equal sibling sums) common.
      counts[rng.NextBounded(u / (1 + (i % 8)))] += 1 + rng.NextBounded(3);
    }
    std::vector<std::pair<uint64_t, int64_t>> ints(counts.begin(), counts.end());
    SparseVector v;
    for (const auto& [key, count] : ints) v.emplace_back(key, static_cast<double>(count));
    const std::map<uint64_t, double> want = IntegerOracle(ints, u);
    const std::vector<WCoeff> got = SparseHaar(v, u);
    ASSERT_EQ(got.size(), want.size());
    size_t i = 0;
    for (const auto& [index, value] : want) {
      ASSERT_EQ(got[i].index, index);
      ASSERT_EQ(got[i].value, value) << "index " << index;  // exact
      ++i;
    }
  }
}

TEST(SparseHaarTest, InputOrderDoesNotChangeABit) {
  Rng rng(21);
  const uint64_t u = 8192;
  std::unordered_map<uint64_t, double> entries;
  for (int i = 0; i < 700; ++i) {
    entries[rng.NextBounded(u)] = (rng.NextDouble() - 0.5) * 50.0;
  }
  SparseVector v(entries.begin(), entries.end());
  std::sort(v.begin(), v.end());
  const std::vector<WCoeff> want = SparseHaar(v, u);
  for (int trial = 0; trial < 5; ++trial) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.NextBounded(i)]);
    ExpectBitIdentical(SparseHaar(v, u), want);
  }
}

TEST(SparseHaarTest, DuplicateKeysEqualPresummedKeys) {
  Rng rng(31);
  const uint64_t u = 1024;
  SparseVector split;
  std::map<uint64_t, double> summed;
  for (int i = 0; i < 400; ++i) {
    const uint64_t key = rng.NextBounded(u / 4);
    const double weight = static_cast<double>(1 + rng.NextBounded(9));
    split.emplace_back(key, weight);
    summed[key] += weight;
  }
  ExpectBitIdentical(SparseHaar(split, u),
                     SparseHaar(SparseVector(summed.begin(), summed.end()), u));
}

TEST(SparseHaarTest, DoubleWeightsMatchPointUpdateOracle) {
  // Non-integer weights round differently from the key-major walk (one
  // division per coefficient instead of one per contribution); the two
  // agree to within 1e-12 of the coefficient's absolute mass.
  for (uint64_t seed : {41u, 42u, 43u}) {
    Rng rng(seed);
    const uint64_t u = 4096;
    SparseVector v;
    std::unordered_map<uint64_t, double> want, mass;
    for (int i = 0; i < 500; ++i) {
      const uint64_t key = rng.NextBounded(u);
      const double weight = (rng.NextDouble() - 0.5) * 100.0;
      v.emplace_back(key, weight);
      AccumulatePointUpdate(key, weight, u, &want);
      AccumulatePointUpdate(key, std::fabs(weight), u, &mass);
    }
    std::unordered_map<uint64_t, double> got;
    for (const WCoeff& w : SparseHaar(v, u)) {
      EXPECT_NE(w.value, 0.0);
      got[w.index] = w.value;
    }
    for (const auto& [index, value] : want) {
      const double g = got.count(index) ? got[index] : 0.0;
      EXPECT_LE(std::fabs(g - value), 1e-12 * std::fabs(mass[index])) << "index " << index;
    }
    for (const auto& [index, value] : got) EXPECT_EQ(want.count(index), 1u) << index;
  }
}

TEST(SparseHaarTest, CountSortedKeysCountsEachKeyInOrder) {
  Rng rng(51);
  std::vector<uint64_t> keys;
  std::map<uint64_t, double> want;
  for (int i = 0; i < 5000; ++i) {
    // Keys straddle several radix digits, including the top one.
    const uint64_t key = rng.NextBounded(256) << (8 * (i % 8));
    keys.push_back(key);
    want[key] += 1.0;
  }
  const SortedSparseVector v = CountSortedKeys(keys);
  ASSERT_EQ(v.keys.size(), want.size());
  ASSERT_EQ(v.weights.size(), want.size());
  size_t i = 0;
  for (const auto& [key, count] : want) {
    EXPECT_EQ(v.keys[i], key);
    EXPECT_EQ(v.weights[i], count);
    ++i;
  }
  EXPECT_TRUE(CountSortedKeys({}).keys.empty());
}

TEST(SparseHaarTest, NegativeWeightsSupported) {
  // Sampling estimators can produce non-integral, negative-ish corrections;
  // the transform must be linear over arbitrary weights.
  SparseVector v = {{3, -2.5}, {7, 0.25}};
  std::vector<double> dense(16, 0.0);
  dense[3] = -2.5;
  dense[7] = 0.25;
  std::vector<double> expect = ForwardHaar(dense);
  std::unordered_map<uint64_t, double> got;
  for (const WCoeff& w : SparseHaar(v, 16)) got[w.index] = w.value;
  for (uint64_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(got.count(i) ? got[i] : 0.0, expect[i], 1e-10);
  }
}

}  // namespace
}  // namespace wavemr
