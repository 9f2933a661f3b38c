// Equi-depth reduce partitioning: MergeCut / CutForRank boundary-selection
// properties, spilled-vs-resident boundary agreement, the all-equal-keys
// regression, bit-identity of DeliverSortedMerge under many-slice
// schedules, and its two exception exits (a throwing reducer on the driver,
// a failing spill read on a worker). The load-balance claim under test:
// boundaries at exact global ranks r*n/R hold every range within one pair
// of n/R no matter how skewed the key distribution is -- Zipf, constant, or
// adversarial.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/failpoint.h"
#include "core/rng.h"
#include "mapreduce/job.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/spill.h"

namespace wavemr {
namespace {

using Pair = std::pair<uint64_t, uint64_t>;
using Plane = ShufflePlane<uint64_t, uint64_t>;
using Run = ShuffleRun<uint64_t, uint64_t>;

uint64_t WirePairs(const uint64_t*, const uint64_t*, size_t n) {
  return uint64_t{8} * n;
}

// Values are globally unique sequence numbers across all runs, so any
// ordering or placement deviation between two delivery paths is visible.
std::vector<Run> SequencedRuns(const std::vector<std::vector<uint64_t>>& keys) {
  std::vector<Run> runs(keys.size());
  uint64_t sequence = 0;
  for (size_t q = 0; q < keys.size(); ++q) {
    for (uint64_t k : keys[q]) runs[q].Append(k, sequence++);
  }
  return runs;
}

// Zipf-ish skew: run q holds keys floor(domain / rank^s) style -- most mass
// on a handful of low keys, a long sparse tail.
std::vector<std::vector<uint64_t>> ZipfKeySets(uint64_t seed, size_t num_runs,
                                               size_t run_len,
                                               uint64_t domain) {
  Rng rng(seed);
  std::vector<std::vector<uint64_t>> sets(num_runs);
  for (auto& set : sets) {
    for (size_t i = 0; i < run_len; ++i) {
      // Inverse-power sample: u in (0,1], key ~ domain * u^3 biases hard
      // toward 0 (roughly s=1.2-flavored head-heaviness is all we need).
      const double u =
          (static_cast<double>(rng.NextBounded(1u << 20)) + 1.0) /
          static_cast<double>(1u << 20);
      set.push_back(static_cast<uint64_t>(
          static_cast<double>(domain - 1) * u * u * u));
    }
  }
  return sets;
}

void FillPlane(Plane* plane, std::vector<Run> runs) {
  for (auto& run : runs) {
    run.SortByKey();
    plane->Accept(std::move(run), [](const uint64_t&, const uint64_t&) {
      FAIL() << "sorted plane must not stream at Accept";
    });
  }
}

std::vector<Pair> FullMerge(Plane& plane) {
  std::vector<Pair> out;
  plane.Merge(
      [&out](const uint64_t& k, const uint64_t& v) { out.emplace_back(k, v); });
  return out;
}

// Per-range pair counts when the plane is split at ranks r*n/R and each
// range is delivered via MergeCutRange; also appends everything delivered
// to `stream` so callers can check concatenation order.
std::vector<uint64_t> CutRangeCounts(const Plane& plane, int R,
                                     std::vector<Pair>* stream) {
  const uint64_t n = plane.pairs();
  std::vector<uint64_t> counts;
  for (int r = 0; r < R; ++r) {
    const uint64_t b = n * static_cast<uint64_t>(r) / static_cast<uint64_t>(R);
    const uint64_t e =
        n * static_cast<uint64_t>(r + 1) / static_cast<uint64_t>(R);
    if (b == e) {
      counts.push_back(0);
      continue;
    }
    const MergeCut<uint64_t> lo = plane.CutForRank(b);
    const bool has_hi = e < n;
    const MergeCut<uint64_t> hi =
        has_hi ? plane.CutForRank(e) : MergeCut<uint64_t>{};
    uint64_t delivered = 0;
    plane.MergeCutRange(lo, has_hi, hi,
                        [&](const uint64_t& k, const uint64_t& v) {
                          ++delivered;
                          if (stream != nullptr) stream->emplace_back(k, v);
                        });
    counts.push_back(delivered);
  }
  return counts;
}

// ---------------------------------------------------------------------------
// Boundary selection properties.
// ---------------------------------------------------------------------------

// The headline property: on skewed (Zipf-ish), constant, and adversarial
// run sets, equi-depth boundaries keep max/min per-range pair counts within
// 2x (they are in fact within one pair of each other), and the delivered
// ranges concatenate to the single-merge stream.
TEST(EquiDepthTest, BoundariesBalanceSkewedConstantAndAdversarialRuns) {
  struct Case {
    const char* name;
    std::vector<std::vector<uint64_t>> key_sets;
  };
  std::vector<Case> cases;
  cases.push_back({"zipf", ZipfKeySets(7, 6, 400, uint64_t{1} << 32)});
  cases.push_back(
      {"constant", {std::vector<uint64_t>(500, 42), std::vector<uint64_t>(300, 42)}});
  // Adversarial: one run owns a single hot key repeated, the other a wide
  // uniform stripe far above it -- equal-width would put everything in one
  // range of R.
  {
    std::vector<uint64_t> hot(700, 3);
    std::vector<uint64_t> stripe;
    for (uint64_t i = 0; i < 300; ++i) {
      stripe.push_back((uint64_t{1} << 60) + i * 1000003);
    }
    cases.push_back({"adversarial", {hot, stripe}});
  }

  for (const auto& c : cases) {
    Plane plane(WirePairs, /*sorted=*/true, SpillPolicy{0}, nullptr);
    FillPlane(&plane, SequencedRuns(c.key_sets));
    const std::vector<Pair> want = FullMerge(plane);
    for (int R : {2, 4, 8}) {
      std::vector<Pair> stream;
      const std::vector<uint64_t> counts = CutRangeCounts(plane, R, &stream);
      EXPECT_EQ(stream, want) << c.name << " R=" << R;
      const uint64_t max = *std::max_element(counts.begin(), counts.end());
      const uint64_t min = *std::min_element(counts.begin(), counts.end());
      ASSERT_GT(min, 0u) << c.name << " R=" << R;
      EXPECT_LE(max, 2 * min) << c.name << " R=" << R;
      EXPECT_LE(max - min, 1u)
          << c.name << " R=" << R << ": exact ranks are within one pair";
    }
  }
}

TEST(EquiDepthTest, CutForRankPrefixMatchesMergePrefix) {
  Plane plane(WirePairs, true, SpillPolicy{0}, nullptr);
  FillPlane(&plane, SequencedRuns(ZipfKeySets(11, 5, 200, 1u << 20)));
  const std::vector<Pair> want = FullMerge(plane);
  const uint64_t n = plane.pairs();
  const MergeCut<uint64_t> begin = plane.CutForRank(0);
  for (uint64_t rank : {uint64_t{1}, n / 7, n / 3, n / 2, n - 1}) {
    const MergeCut<uint64_t> cut = plane.CutForRank(rank);
    std::vector<Pair> prefix;
    plane.MergeCutRange(begin, /*has_hi=*/true, cut,
                        [&prefix](const uint64_t& k, const uint64_t& v) {
                          prefix.emplace_back(k, v);
                        });
    ASSERT_EQ(prefix.size(), rank) << "rank " << rank;
    for (uint64_t i = 0; i < rank; ++i) {
      EXPECT_EQ(prefix[i], want[i]) << "rank " << rank << " pair " << i;
    }
  }
}

// Spilled and resident planes over the same runs must agree on every
// boundary cut and deliver identical cut ranges -- the on-disk
// LowerBound/UpperBound probes are the same binary search as the in-memory
// one.
TEST(EquiDepthTest, SpilledAndResidentPlanesAgreeOnBoundaries) {
  for (uint64_t seed : {5u, 23u, 71u}) {
    auto key_sets = ZipfKeySets(seed, 6, 250, 1u << 24);
    SpillDir dir;
    Plane spilled(WirePairs, true, SpillPolicy{/*buffer_bytes=*/256}, &dir);
    Plane resident(WirePairs, true, SpillPolicy{0}, nullptr);
    FillPlane(&spilled, SequencedRuns(key_sets));
    FillPlane(&resident, SequencedRuns(key_sets));
    ASSERT_GT(spilled.spill_files(), 0u) << "seed " << seed;
    ASSERT_EQ(spilled.pairs(), resident.pairs());

    const uint64_t n = resident.pairs();
    for (uint64_t rank : {uint64_t{0}, uint64_t{1}, n / 5, n / 2, n - 1}) {
      const MergeCut<uint64_t> a = spilled.CutForRank(rank);
      const MergeCut<uint64_t> b = resident.CutForRank(rank);
      EXPECT_TRUE(a == b) << "seed " << seed << " rank " << rank << ": ("
                          << a.key << "," << a.ordinal << "," << a.offset
                          << ") vs (" << b.key << "," << b.ordinal << ","
                          << b.offset << ")";
    }
    for (int R : {3, 8}) {
      std::vector<Pair> sa, sb;
      CutRangeCounts(spilled, R, &sa);
      CutRangeCounts(resident, R, &sb);
      EXPECT_EQ(sa, sb) << "seed " << seed << " R=" << R;
    }
  }
}

// ---------------------------------------------------------------------------
// DeliverSortedMerge: the regression and the bit-identity property.
// ---------------------------------------------------------------------------

struct DeliverOutcome {
  std::vector<Pair> stream;
  internal::SortedMergeResult result;
};

DeliverOutcome Deliver(const std::vector<std::vector<uint64_t>>& key_sets,
                       int reduce_tasks, int pool_threads,
                       uint64_t spill_budget, uint64_t slice_pairs) {
  MrEnv env;
  Plane plane(WirePairs, true, SpillPolicy{spill_budget},
              spill_budget > 0 ? &env.spill_dir : nullptr);
  FillPlane(&plane, SequencedRuns(key_sets));
  DeliverOutcome out;
  out.result = internal::DeliverSortedMerge(
      plane, &env, reduce_tasks, pool_threads,
      [&out](const uint64_t& k, const uint64_t& v) {
        out.stream.emplace_back(k, v);
      },
      slice_pairs);
  return out;
}

// Regression (ISSUE 7 satellite): with every key equal, the old equal-width
// partitioner saw min_key == max_key and collapsed to one range. Rank
// boundaries split the duplicates evenly across all R ranges.
TEST(EquiDepthTest, AllEqualKeysStillSplitAcrossRanges) {
  std::vector<std::vector<uint64_t>> key_sets = {
      std::vector<uint64_t>(600, 9), std::vector<uint64_t>(400, 9)};
  for (int threads : {1, 4}) {
    const DeliverOutcome out = Deliver(key_sets, /*reduce_tasks=*/4, threads,
                                       /*spill_budget=*/0,
                                       /*slice_pairs=*/0);
    EXPECT_EQ(out.result.reduce_tasks_used, 4) << "threads " << threads;
    EXPECT_EQ(out.result.range_max_pairs, 250u) << "threads " << threads;
    EXPECT_EQ(out.result.range_min_pairs, 250u) << "threads " << threads;
    ASSERT_EQ(out.stream.size(), 1000u);
    for (uint64_t i = 0; i < 1000; ++i) {
      EXPECT_EQ(out.stream[i], Pair(9, i)) << "pair " << i;
    }
  }
}

// Bit-identity across every (threads, reduce_tasks, spill, slice size)
// combination, including slice sizes small enough to force hundreds of
// slices through the staging window: the delivered stream must equal the
// single full merge.
TEST(EquiDepthTest, SliceSchedulesAreBitIdenticalToSingleMerge) {
  auto key_sets = ZipfKeySets(31, 5, 300, 1u << 28);
  const DeliverOutcome reference =
      Deliver(key_sets, /*reduce_tasks=*/1, /*pool_threads=*/1, 0, 0);
  ASSERT_EQ(reference.result.reduce_tasks_used, 1);
  for (int threads : {1, 2, 4, 8}) {
    for (int R : {2, 4, 8}) {
      for (uint64_t budget : {uint64_t{0}, uint64_t{512}}) {
        for (uint64_t slice : {uint64_t{0}, uint64_t{64}, uint64_t{7}}) {
          const DeliverOutcome out = Deliver(key_sets, R, threads, budget, slice);
          EXPECT_EQ(out.stream, reference.stream)
              << "threads=" << threads << " R=" << R << " budget=" << budget
              << " slice=" << slice;
          EXPECT_EQ(out.result.reduce_tasks_used, R);
          EXPECT_LE(out.result.range_max_pairs,
                    out.result.range_min_pairs + 1);
        }
      }
    }
  }
}

// Planned range loads surface in RoundStats fields via SortedMergeResult
// even when n does not divide evenly.
TEST(EquiDepthTest, RangeLoadStatsReportExactPlannedCounts) {
  std::vector<std::vector<uint64_t>> key_sets = {{1, 2, 3, 4, 5, 6, 7}};
  const DeliverOutcome out = Deliver(key_sets, 3, 1, 0, 0);
  EXPECT_EQ(out.result.range_max_pairs, 3u);  // 7 = 2 + 3 + 2 at ranks 2,4
  EXPECT_EQ(out.result.range_min_pairs, 2u);
  EXPECT_EQ(out.stream.size(), 7u);
}

// ---------------------------------------------------------------------------
// DeliverSortedMerge's exception exits: every worker is joined before the
// error leaves the call, and the plane still removes its spill files.
// ---------------------------------------------------------------------------

size_t FilesIn(const SpillDir& dir) {
  if (!dir.created()) return 0;
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    (void)entry;
    ++n;
  }
  return n;
}

// A reducer that throws mid-stream on the driver: DeliverSortedMerge stops
// the workers, waits them out and rethrows the reducer's own exception.
TEST(EquiDepthTest, ThrowingReducerStopsParallelDeliveryAndRethrows) {
  auto key_sets = ZipfKeySets(43, 6, 400, 1u << 20);
  for (uint64_t budget : {uint64_t{0}, uint64_t{512}}) {
    for (uint64_t slice : {uint64_t{0}, uint64_t{64}}) {
      MrEnv env;
      {
        Plane plane(WirePairs, true, SpillPolicy{budget},
                    budget > 0 ? &env.spill_dir : nullptr);
        FillPlane(&plane, SequencedRuns(key_sets));
        if (budget > 0) {
          ASSERT_GT(plane.spill_files(), 0u);
        }
        uint64_t absorbed = 0;
        try {
          internal::DeliverSortedMerge(
              plane, &env, /*reduce_tasks=*/4, /*pool_threads=*/4,
              [&absorbed](const uint64_t&, const uint64_t&) {
                if (++absorbed == 100) throw std::runtime_error("reducer failed");
              },
              slice);
          ADD_FAILURE() << "budget=" << budget << " slice=" << slice
                        << ": the reducer's exception was swallowed";
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "reducer failed");
        }
        EXPECT_EQ(absorbed, 100u);
      }
      EXPECT_EQ(FilesIn(env.spill_dir), 0u)
          << "budget=" << budget << " slice=" << slice;
    }
  }
}

// A spill read that fails on the workers (every open errors): delivery
// surfaces the SpillIoError instead of hanging the driver.
TEST(EquiDepthTest, SpillReadErrorOnWorkersSurfacesAsSpillIoError) {
  struct DisarmAtExit {
    ~DisarmAtExit() { Failpoints::DisarmAll(); }
  } disarm;
  auto key_sets = ZipfKeySets(47, 6, 400, 1u << 20);
  for (uint64_t slice : {uint64_t{0}, uint64_t{64}}) {
    MrEnv env;
    {
      Plane plane(WirePairs, true, SpillPolicy{512}, &env.spill_dir);
      FillPlane(&plane, SequencedRuns(key_sets));
      ASSERT_GT(plane.spill_files(), 0u);
      ASSERT_TRUE(Failpoints::ArmFromSpec("spill.read.open=error:EIO").ok());
      EXPECT_THROW(internal::DeliverSortedMerge(
                       plane, &env, /*reduce_tasks=*/4, /*pool_threads=*/4,
                       [](const uint64_t&, const uint64_t&) {}, slice),
                   SpillIoError)
          << "slice=" << slice;
      Failpoints::DisarmAll();
    }
    EXPECT_EQ(FilesIn(env.spill_dir), 0u) << "slice=" << slice;
  }
}

}  // namespace
}  // namespace wavemr
