// Bit-identity of the GroupCountSketch hot paths across SIMD dispatch tiers
// (core/simd.h): the scalar table is the reference, and any vector tier the
// host can run must produce exactly the same counters, energies, and
// estimates. Complements tests/core/simd_test.cc (raw kernels) by exercising
// the integrated sketch paths: pow2 and non-pow2 sub-bucket widths, short
// batches with partial lane groups and long ones, index-ordered runs and
// repeated items.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/rng.h"
#include "core/simd.h"
#include "sketch/group_count_sketch.h"

namespace wavemr {
namespace {

/// Restores the startup tier when a test is done overriding it.
class SimdTierGuard {
 public:
  explicit SimdTierGuard(SimdTier tier) { OverrideSimdTierForTest(tier); }
  ~SimdTierGuard() { OverrideSimdTierForTest(ActiveSimdTier()); }
};

struct BatchInput {
  std::vector<uint64_t> items;
  std::vector<double> values;
};

// Two shapes interleaved in runs: ascending distinct indices with random
// gaps (a sparse coefficient vector in index order, the shape Send-Sketch
// feeds, where neighbours share dyadic groups) and random items drawn from a
// small range, so the same item and the same cell recur within one batch.
BatchInput MakeInput(uint64_t seed, size_t n, uint64_t domain) {
  BatchInput in;
  Rng rng(seed);
  uint64_t next = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t item;
    if ((i / 50) % 2 == 0) {
      next = (next + 1 + rng.NextBounded(6)) % domain;
      item = next;
    } else {
      item = rng.NextBounded(512);
    }
    in.items.push_back(item);
    in.values.push_back((rng.NextDouble() - 0.5) * 64.0);
  }
  return in;
}

GroupCountSketch BuildUnderTier(SimdTier tier, size_t subbuckets,
                                const BatchInput& in, size_t chunk) {
  SimdTierGuard guard(tier);
  GroupCountSketch sketch(4242, 5, 32, subbuckets);
  // Feed in chunks so partial vector lane groups (chunk % 4 != 0) and
  // partial blocks both get exercised.
  for (size_t base = 0; base < in.items.size(); base += chunk) {
    const size_t n = std::min(chunk, in.items.size() - base);
    sketch.UpdateBatch(in.items.data() + base, in.values.data() + base, n, 3);
  }
  return sketch;
}

TEST(GcsSimdTierTest, UpdateBatchBitIdenticalScalarVsBestTier) {
  const BatchInput in = MakeInput(17, 3000, uint64_t{1} << 16);
  for (size_t subbuckets : {size_t{8}, size_t{6}, size_t{1}}) {
    for (size_t chunk : {size_t{18}, size_t{301}, size_t{3000}}) {
      GroupCountSketch scalar =
          BuildUnderTier(SimdTier::kScalar, subbuckets, in, chunk);
      GroupCountSketch best =
          BuildUnderTier(BestSimdTier(), subbuckets, in, chunk);
      ASSERT_EQ(scalar.NumCounters(), best.NumCounters());
      for (size_t i = 0; i < scalar.NumCounters(); ++i) {
        ASSERT_EQ(scalar.CounterAt(i), best.CounterAt(i))
            << "counter " << i << " subbuckets=" << subbuckets
            << " chunk=" << chunk << " tier=" << SimdTierName(BestSimdTier());
      }
    }
  }
}

TEST(GcsSimdTierTest, SimdBatchMatchesScalarUpdateLoop) {
  // The vector batch path must still equal n plain Update() calls exactly
  // (the same contract UpdateBatchMatchesScalarUpdatesBitForBit pins for the
  // scalar batch path).
  const BatchInput in = MakeInput(23, 1500, uint64_t{1} << 14);
  SimdTierGuard guard(BestSimdTier());
  GroupCountSketch loop(7, 5, 16, 8), batch(7, 5, 16, 8);
  for (size_t i = 0; i < in.items.size(); ++i) {
    loop.Update(in.items[i] >> 3, in.items[i], in.values[i]);
  }
  batch.UpdateBatch(in.items.data(), in.values.data(), in.items.size(), 3);
  for (size_t i = 0; i < loop.NumCounters(); ++i) {
    ASSERT_EQ(loop.CounterAt(i), batch.CounterAt(i)) << "counter " << i;
  }
}

TEST(GcsSimdTierTest, QueriesBitIdenticalAcrossTiers) {
  // GroupEnergy and EstimateItem read through the dispatched hash and
  // sum-of-squares kernels; with one fixed table the answers must not depend
  // on the tier at all.
  const BatchInput in = MakeInput(31, 4000, uint64_t{1} << 12);
  GroupCountSketch sketch = BuildUnderTier(BestSimdTier(), 8, in, 4000);
  std::vector<double> want_energy, want_est;
  {
    SimdTierGuard guard(SimdTier::kScalar);
    for (uint64_t g = 0; g < 64; ++g) {
      want_energy.push_back(sketch.GroupEnergy(g));
      want_est.push_back(sketch.EstimateItem(g, g * 8 + 3));
    }
  }
  {
    SimdTierGuard guard(BestSimdTier());
    for (uint64_t g = 0; g < 64; ++g) {
      ASSERT_EQ(sketch.GroupEnergy(g), want_energy[g]) << "group " << g;
      ASSERT_EQ(sketch.EstimateItem(g, g * 8 + 3), want_est[g])
          << "group " << g;
    }
  }
}

TEST(GcsSimdTierTest, NonPow2AndWideSubbucketsStayOnScalarContract) {
  // subbuckets > 2^30 exceeds the packed-slot bound, so UpdateBatch must
  // take the scalar path; with a tiny sketch we can only pin the guard's
  // behavior for non-pow2 widths, which share the % reduction.
  const BatchInput in = MakeInput(41, 600, uint64_t{1} << 13);
  SimdTierGuard guard(BestSimdTier());
  GroupCountSketch loop(11, 3, 8, 12), batch(11, 3, 8, 12);
  for (size_t i = 0; i < in.items.size(); ++i) {
    loop.Update(in.items[i] >> 4, in.items[i], in.values[i]);
  }
  batch.UpdateBatch(in.items.data(), in.values.data(), in.items.size(), 4);
  for (size_t i = 0; i < loop.NumCounters(); ++i) {
    ASSERT_EQ(loop.CounterAt(i), batch.CounterAt(i)) << "counter " << i;
  }
}

}  // namespace
}  // namespace wavemr
