// The engine's core guarantee: for any --threads value, every algorithm
// produces bit-identical histograms, counters, and shuffle accounting,
// because map outputs are absorbed in split-index order regardless of which
// worker finished first.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

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

BuildResult BuildWith(const Dataset& ds, AlgorithmKind kind, int threads,
                      int reduce_tasks = 0, uint64_t shuffle_buffer_bytes = 0,
                      bool force_sorted_shuffle = false) {
  BuildOptions opt;
  opt.k = 20;
  opt.epsilon = 0.05;
  opt.seed = 1234;
  opt.threads = threads;
  opt.reduce_tasks = reduce_tasks;
  opt.force_sorted_shuffle = force_sorted_shuffle;
  if (shuffle_buffer_bytes > 0) {
    opt.io.shuffle_buffer_bytes = shuffle_buffer_bytes;
  }
  auto result = BuildWaveletHistogram(ds, kind, opt);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result);
}

struct Case {
  AlgorithmKind kind;
  int threads;
  int reduce_tasks = 0;
  /// Sorted delivery on every round (BuildOptions::force_sorted_shuffle):
  /// all seven algorithms go through the retained-run/spill plane. Declared
  /// here it fills the alignment gap, so Case stays 24 bytes.
  bool force_sorted = false;
  /// 0 = IoOptions default (no spill at this workload size); a tiny value
  /// forces real spill files on every sorted round.
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
  if (info.param.force_sorted) name += "_sorted";
  return name;
}

class ParallelDeterminismTest : public testing::TestWithParam<Case> {};

TEST_P(ParallelDeterminismTest, MatchesSerialExecution) {
  const Case param = GetParam();
  ZipfDataset ds = TestDataset();

  // The fixed reference: serial map, single reduce partition, default
  // shuffle buffer, same delivery mode. Every scheduling/spill knob must
  // reproduce it exactly.
  BuildResult serial = BuildWith(ds, param.kind, /*threads=*/1,
                                 /*reduce_tasks=*/1, /*shuffle_buffer_bytes=*/0,
                                 param.force_sorted);
  BuildResult threaded = BuildWith(ds, param.kind, param.threads,
                                   param.reduce_tasks,
                                   param.shuffle_buffer_bytes,
                                   param.force_sorted);

  // Identical histograms: same coefficients, bit-for-bit.
  const auto& want = serial.histogram.coefficients();
  const auto& got = threaded.histogram.coefficients();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].index, got[i].index) << "coefficient " << i;
    EXPECT_EQ(want[i].value, got[i].value) << "coefficient " << i;
  }

  // Identical counters. Spill counters are a function of the buffer budget
  // (they appear when a tiny buffer forces the external path), so they are
  // compared only when both runs used the same budget; everything else must
  // match exactly in every case.
  auto serial_counters = serial.stats.counters.values();
  auto threaded_counters = threaded.stats.counters.values();
  if (param.shuffle_buffer_bytes > 0) {
    auto strip_spill = [](std::map<std::string, uint64_t>* counters) {
      for (auto it = counters->begin(); it != counters->end();) {
        if (it->first.rfind("shuffle_spill", 0) == 0) {
          it = counters->erase(it);
        } else {
          ++it;
        }
      }
    };
    strip_spill(&serial_counters);
    strip_spill(&threaded_counters);
  }
  EXPECT_EQ(serial_counters, threaded_counters);

  // Identical per-round shuffle/broadcast accounting and simulated time.
  ASSERT_EQ(serial.stats.NumRounds(), threaded.stats.NumRounds());
  for (size_t r = 0; r < serial.stats.rounds.size(); ++r) {
    const RoundStats& a = serial.stats.rounds[r];
    const RoundStats& b = threaded.stats.rounds[r];
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

// Default delivery: every algorithm (streaming plane, combiner and stateful
// multi-round paths) must be bit-identical at every thread count the
// columnar shuffle plane schedules differently.
std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (AlgorithmKind kind : AllKinds()) {
    for (int threads : {1, 2, 4, 8}) {
      cases.push_back(Case{kind, threads});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ParallelDeterminismTest,
                         testing::ValuesIn(AllCases()), CaseName);

// The sorted plane's knobs in default delivery: reduce-tasks {1, 2, 4, 8}
// and a 4 KiB shuffle buffer (at 4 map threads) only shape sorted rounds, so
// a streaming build must reproduce its serial reference with any of them
// set. The ForcedSorted grid below runs the same knobs on the sorted plane.
std::vector<Case> ReduceTaskCases() {
  std::vector<Case> cases;
  for (AlgorithmKind kind : AllKinds()) {
    for (int reduce_tasks : {1, 2, 4, 8}) {
      cases.push_back(Case{kind, /*threads=*/4, reduce_tasks});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(ReduceTasks, ParallelDeterminismTest,
                         testing::ValuesIn(ReduceTaskCases()), CaseName);

std::vector<Case> SpillCases() {
  std::vector<Case> cases;
  for (AlgorithmKind kind : AllKinds()) {
    for (int reduce_tasks : {1, 4}) {
      cases.push_back(Case{kind, /*threads=*/4, reduce_tasks,
                           /*force_sorted=*/false,
                           /*shuffle_buffer_bytes=*/4096});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(ForcedSpill, ParallelDeterminismTest,
                         testing::ValuesIn(SpillCases()), CaseName);

// Forced sorted delivery: the mode the spill workloads and CI spill lanes
// run in, and the only way a build reaches the retained-run/spill plane
// (every round streams by default). Every algorithm at 4 map threads, so
// rank-slice merges really run on the pool, x reduce-tasks {1, 2, 4, 8} x
// buffer {default, 4 KiB} must equal its forced-sorted serial reference. The
// 4 KiB buffer forces every round to write real spill files; results --
// including simulated seconds, which deliberately exclude the
// separately-reported spill IO time -- must not move a bit.
std::vector<Case> ForcedSortedCases() {
  std::vector<Case> cases;
  for (AlgorithmKind kind : AllKinds()) {
    for (int reduce_tasks : {1, 2, 4, 8}) {
      for (uint64_t budget : {uint64_t{0}, uint64_t{4096}}) {
        cases.push_back(Case{kind, /*threads=*/4, reduce_tasks,
                             /*force_sorted=*/true, budget});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(ForcedSorted, ParallelDeterminismTest,
                         testing::ValuesIn(ForcedSortedCases()), CaseName);

// Delivery mode: sorted delivery hands each key's values to the reducer in
// the same split order as streaming delivery, and no reducer depends on the
// order across keys. So for every algorithm, serial and threaded, forcing
// sorted delivery must give the default delivery's synopsis bit for bit,
// with the same communication and simulated time. Every round of a default
// build streams: RoundStats::reduce_wall_ms is only ever set by a sorted
// round's merge, so it is exactly 0 on a streaming one.
class ParallelDeterminismDeliveryTest : public testing::TestWithParam<Case> {};

TEST_P(ParallelDeterminismDeliveryTest, SortedMatchesDefaultDelivery) {
  const Case param = GetParam();
  ZipfDataset ds = TestDataset();
  BuildResult by_default = BuildWith(ds, param.kind, param.threads);
  BuildResult sorted = BuildWith(ds, param.kind, param.threads,
                                 /*reduce_tasks=*/0, /*shuffle_buffer_bytes=*/0,
                                 /*force_sorted_shuffle=*/true);

  const auto& want = by_default.histogram.coefficients();
  const auto& got = sorted.histogram.coefficients();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].index, got[i].index) << "coefficient " << i;
    EXPECT_EQ(want[i].value, got[i].value) << "coefficient " << i;
  }
  ASSERT_EQ(by_default.stats.NumRounds(), sorted.stats.NumRounds());
  for (size_t r = 0; r < by_default.stats.rounds.size(); ++r) {
    const RoundStats& a = by_default.stats.rounds[r];
    const RoundStats& b = sorted.stats.rounds[r];
    EXPECT_EQ(a.shuffle_pairs, b.shuffle_pairs) << "round " << r;
    EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes) << "round " << r;
    EXPECT_EQ(a.TotalSeconds(), b.TotalSeconds()) << "round " << r;
    EXPECT_EQ(a.reduce_wall_ms, 0.0) << "round " << r << " did not stream";
    EXPECT_GT(b.reduce_wall_ms, 0.0) << "round " << r << " did not sort";
  }
}

std::vector<Case> DeliveryCases() {
  std::vector<Case> cases;
  for (AlgorithmKind kind : AllKinds()) {
    for (int threads : {1, 4}) cases.push_back(Case{kind, threads});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ParallelDeterminismDeliveryTest,
                         testing::ValuesIn(DeliveryCases()), CaseName);

// Forced-sorted builds under a tiny buffer must actually hit the external
// path (the ForcedSorted grid above would pass vacuously if spilling never
// engaged).
TEST(SpillEngagementTest, SortedAlgorithmsSpillUnderTinyBuffer) {
  ZipfDataset ds = TestDataset();
  for (AlgorithmKind kind : {AlgorithmKind::kSendCoef, AlgorithmKind::kHWTopk}) {
    BuildResult r = BuildWith(ds, kind, /*threads=*/2, /*reduce_tasks=*/2,
                              /*shuffle_buffer_bytes=*/4096,
                              /*force_sorted_shuffle=*/true);
    EXPECT_GT(r.stats.counters.Get("shuffle_spill_files"), 0u)
        << AlgorithmName(kind);
    EXPECT_GT(r.stats.TotalSpillBytes(), 0u) << AlgorithmName(kind);
    EXPECT_GT(r.stats.TotalSpillSeconds(), 0.0) << AlgorithmName(kind);

    // At a fixed budget the spill decisions happen at the driver's
    // split-order Accept, so the spill counters themselves are also
    // schedule-independent: full counter equality across threads and
    // reduce-task counts.
    BuildResult other = BuildWith(ds, kind, /*threads=*/8, /*reduce_tasks=*/8,
                                  /*shuffle_buffer_bytes=*/4096,
                                  /*force_sorted_shuffle=*/true);
    EXPECT_EQ(r.stats.counters.values(), other.stats.counters.values())
        << AlgorithmName(kind);
  }
}

// threads=0 means "all hardware threads"; it must obey the same guarantee.
TEST(ParallelDeterminismTest, HardwareDefaultMatchesSerial) {
  ZipfDataset ds = TestDataset();
  BuildResult serial = BuildWith(ds, AlgorithmKind::kSendV, 1);
  BuildResult automatic = BuildWith(ds, AlgorithmKind::kSendV, 0);
  ASSERT_EQ(serial.histogram.coefficients().size(),
            automatic.histogram.coefficients().size());
  for (size_t i = 0; i < serial.histogram.coefficients().size(); ++i) {
    EXPECT_EQ(serial.histogram.coefficients()[i].value,
              automatic.histogram.coefficients()[i].value);
  }
  EXPECT_EQ(serial.stats.counters.values(), automatic.stats.counters.values());
}

}  // namespace
}  // namespace wavemr
