// WAVEMR_SIMD=scalar vs WAVEMR_SIMD=auto must be invisible in every output:
// the SIMD kernel tier (core/simd.h) promises bit-identical synopses,
// counters, and shuffle accounting for all 7 algorithms, across the same
// threads x reduce-tasks x spill knobs the parallel-determinism suite
// exercises. This drives the same guarantee in-process via the tier
// override (the CI simd-scalar lane covers the env-var path end to end).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/simd.h"
#include "data/dataset.h"
#include "histogram/builder.h"

namespace wavemr {
namespace {

ZipfDataset TestDataset() {
  ZipfDatasetOptions opt;
  opt.num_records = 1 << 14;
  opt.domain_size = 1 << 10;
  opt.alpha = 1.1;
  opt.num_splits = 16;
  opt.seed = 97;
  return ZipfDataset(opt);
}

struct Case {
  AlgorithmKind kind;
  int threads;
  int reduce_tasks = 0;
  /// 0 = default budget and delivery (every round streams); > 0 forces
  /// sorted delivery with this spill budget.
  uint64_t shuffle_buffer_bytes = 0;
};

std::string CaseName(const testing::TestParamInfo<Case>& info) {
  std::string algo = AlgorithmName(info.param.kind);
  for (char& c : algo) {
    if (c == '-') c = '_';
  }
  std::string name = algo + "_t" + std::to_string(info.param.threads);
  if (info.param.reduce_tasks > 0) {
    name += "_r" + std::to_string(info.param.reduce_tasks);
  }
  if (info.param.shuffle_buffer_bytes > 0) name += "_spill";
  return name;
}

BuildResult BuildUnderTier(const Dataset& ds, const Case& c, SimdTier tier) {
  OverrideSimdTierForTest(tier);
  BuildOptions opt;
  opt.k = 20;
  opt.epsilon = 0.05;
  opt.seed = 1234;
  opt.threads = c.threads;
  opt.reduce_tasks = c.reduce_tasks;
  if (c.shuffle_buffer_bytes > 0) {
    opt.force_sorted_shuffle = true;
    opt.io.shuffle_buffer_bytes = c.shuffle_buffer_bytes;
  }
  auto result = BuildWaveletHistogram(ds, c.kind, opt);
  OverrideSimdTierForTest(ActiveSimdTier());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result);
}

class SimdScalarVsAutoTest : public testing::TestWithParam<Case> {};

TEST_P(SimdScalarVsAutoTest, BitIdenticalAcrossTiers) {
  const Case param = GetParam();
  ZipfDataset ds = TestDataset();

  BuildResult scalar = BuildUnderTier(ds, param, SimdTier::kScalar);
  BuildResult vector = BuildUnderTier(ds, param, BestSimdTier());

  // Identical synopses: same coefficients, bit for bit.
  const auto& want = scalar.histogram.coefficients();
  const auto& got = vector.histogram.coefficients();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].index, got[i].index) << "coefficient " << i;
    ASSERT_EQ(want[i].value, got[i].value) << "coefficient " << i;
  }

  // Identical counters (includes every communication and spill count).
  EXPECT_EQ(scalar.stats.counters.values(), vector.stats.counters.values());

  // Identical per-round shuffle/broadcast bytes and simulated time.
  ASSERT_EQ(scalar.stats.NumRounds(), vector.stats.NumRounds());
  for (size_t r = 0; r < scalar.stats.rounds.size(); ++r) {
    const RoundStats& a = scalar.stats.rounds[r];
    const RoundStats& b = vector.stats.rounds[r];
    EXPECT_EQ(a.shuffle_pairs, b.shuffle_pairs) << "round " << r;
    EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes) << "round " << r;
    EXPECT_EQ(a.broadcast_bytes, b.broadcast_bytes) << "round " << r;
    EXPECT_EQ(a.map_tasks, b.map_tasks) << "round " << r;
    EXPECT_DOUBLE_EQ(a.map_makespan_s, b.map_makespan_s) << "round " << r;
    EXPECT_DOUBLE_EQ(a.TotalSeconds(), b.TotalSeconds()) << "round " << r;
  }
}

const std::vector<AlgorithmKind>& AllKinds() {
  static const std::vector<AlgorithmKind> kinds = {
      AlgorithmKind::kSendV,     AlgorithmKind::kSendCoef,
      AlgorithmKind::kHWTopk,    AlgorithmKind::kBasicS,
      AlgorithmKind::kImprovedS, AlgorithmKind::kTwoLevelS,
      AlgorithmKind::kSendSketch};
  return kinds;
}

// Every algorithm under: serial; threaded; threaded + forced sorted delivery
// with partitioned reduce and forced spill. (The threads/reduce knobs
// themselves are already proven schedule-invariant by
// parallel_determinism_test; here they make sure no tier-dependent code
// hides behind a scheduling path.)
std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (AlgorithmKind kind : AllKinds()) {
    cases.push_back(Case{kind, /*threads=*/1, /*reduce_tasks=*/1});
    cases.push_back(Case{kind, /*threads=*/4, /*reduce_tasks=*/4});
    cases.push_back(Case{kind, /*threads=*/4, /*reduce_tasks=*/2,
                         /*shuffle_buffer_bytes=*/4096});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SimdScalarVsAutoTest,
                         testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace wavemr
