// External shuffle spill: file framing round-trip, on-disk partitioning,
// temp-dir lifetime, and the bugfix guarantee that spill files are cleaned
// up on every path -- normal completion, reducer exception, and mid-round
// destruction.
#include "mapreduce/spill.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <vector>

#include "core/rng.h"
#include "data/dataset.h"
#include "mapreduce/job.h"
#include "mapreduce/shuffle.h"

namespace wavemr {
namespace {

namespace fs = std::filesystem;

using TestRun = ShuffleRun<uint64_t, uint64_t>;

TestRun RandomSortedRun(uint64_t seed, size_t len, uint64_t key_domain) {
  Rng rng(seed);
  TestRun run;
  for (size_t i = 0; i < len; ++i) {
    run.Append(rng.NextBounded(key_domain), seed * 1000000 + i);
  }
  run.SortByKey();
  return run;
}

SpillFileInfo WriteRun(SpillDir* dir, const TestRun& run) {
  SpillFileInfo info;
  info.path = dir->NextFilePath("test-run");
  info.num_pairs = run.size();
  if (!run.empty()) {
    info.min_key = run.keys.front();
    info.max_key = run.keys.back();
  }
  const SpillWriteResult w = WriteSpillFile<uint64_t, uint64_t>(
      info.path, run.keys.data(), run.values.data(), run.size());
  EXPECT_TRUE(w.io.ok()) << w.io.ToString();
  info.file_bytes = w.file_bytes;
  return info;
}

std::vector<std::pair<uint64_t, uint64_t>> ReadBack(const SpillFileInfo& info,
                                                    uint64_t begin, uint64_t end,
                                                    uint64_t block_pairs) {
  FileRunCursor<uint64_t, uint64_t> cursor(info, begin, end, block_pairs);
  std::vector<std::pair<uint64_t, uint64_t>> out;
  const uint64_t* keys = nullptr;
  const uint64_t* values = nullptr;
  for (uint64_t got; (got = cursor.NextBlock(&keys, &values)) > 0;) {
    for (uint64_t i = 0; i < got; ++i) out.emplace_back(keys[i], values[i]);
  }
  return out;
}

// The satellite property test: write runs -> FileRunCursor read-back ==
// original, across run lengths (including empty), duplicate-heavy key
// domains, and block sizes that do and do not divide the run length.
TEST(SpillFileTest, RoundTripMatchesOriginal) {
  SpillDir dir;
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}, size_t{4097}}) {
      for (uint64_t domain : {uint64_t{1}, uint64_t{13}, uint64_t{1} << 30}) {
        TestRun run = RandomSortedRun(seed ^ (domain + len), len, domain);
        SpillFileInfo info = WriteRun(&dir, run);
        EXPECT_EQ(info.file_bytes, (SpillFileBytes<uint64_t, uint64_t>(len)));
        EXPECT_EQ(info.file_bytes, fs::file_size(info.path));
        for (uint64_t block : {uint64_t{1}, uint64_t{64}, uint64_t{100000}}) {
          auto got = ReadBack(info, 0, run.size(), block);
          ASSERT_EQ(got.size(), run.size());
          for (size_t i = 0; i < run.size(); ++i) {
            EXPECT_EQ(got[i].first, run.keys[i]) << "pair " << i;
            EXPECT_EQ(got[i].second, run.values[i]) << "pair " << i;
          }
        }
      }
    }
  }
}

TEST(SpillFileTest, SubrangeCursorReadsExactSlice) {
  SpillDir dir;
  TestRun run = RandomSortedRun(9, 500, 64);
  SpillFileInfo info = WriteRun(&dir, run);
  auto got = ReadBack(info, 100, 350, /*block_pairs=*/32);
  ASSERT_EQ(got.size(), 250u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, run.keys[100 + i]);
    EXPECT_EQ(got[i].second, run.values[100 + i]);
  }
  // Degenerate slices.
  EXPECT_TRUE(ReadBack(info, 200, 200, 32).empty());
  EXPECT_TRUE(ReadBack(info, 500, 500, 32).empty());
}

TEST(SpillFileTest, LowerBoundIndexMatchesInMemorySearch) {
  SpillDir dir;
  TestRun run = RandomSortedRun(11, 777, 50);  // heavy duplication
  SpillFileInfo info = WriteRun(&dir, run);
  SpillKeyProbe<uint64_t> probe(info);
  for (uint64_t key = 0; key <= 51; ++key) {
    const uint64_t want = static_cast<uint64_t>(
        std::lower_bound(run.keys.begin(), run.keys.end(), key) -
        run.keys.begin());
    EXPECT_EQ(probe.LowerBound(key), want) << "key " << key;
  }

  TestRun empty;
  empty.SortByKey();
  SpillFileInfo einfo = WriteRun(&dir, empty);
  EXPECT_EQ(SpillKeyProbe<uint64_t>(einfo).LowerBound(0), 0u);
}

TEST(SpillDirTest, LazyCreationAndRemoval) {
  fs::path where;
  {
    SpillDir dir;
    EXPECT_FALSE(dir.created());  // nothing touched the filesystem yet
    fs::path file = dir.NextFilePath("x");
    EXPECT_TRUE(dir.created());
    where = dir.path();
    EXPECT_TRUE(fs::exists(where));
    EXPECT_EQ(file.parent_path(), where);
    // Distinct names for distinct files.
    EXPECT_NE(file, dir.NextFilePath("x"));
  }
  EXPECT_FALSE(fs::exists(where));  // destructor removed the tree
}

// ---------------------------------------------------------------------------
// Cleanup through the engine: every exit path leaves the spill dir empty.
// ---------------------------------------------------------------------------

size_t FilesIn(const fs::path& dir) {
  size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

class EmitManyMapper : public MapperBase<EmitManyMapper, uint64_t, uint64_t> {
 public:
  template <typename Ctx>
  void RunImpl(Ctx& ctx) {
    // 256 pairs * 16 bytes per split: far past the tiny test budget.
    for (uint64_t i = 0; i < 256; ++i) {
      ctx.Emit((ctx.split_id() * 977 + i * 131) % 1024, i);
    }
  }
};

class NullReducer : public Reducer<uint64_t, uint64_t> {
 public:
  void Absorb(const uint64_t&, const uint64_t&,
              ReduceContext<uint64_t, uint64_t>&) override {}
  void Finish(ReduceContext<uint64_t, uint64_t>&) override {}
};

class ThrowingFinishReducer : public Reducer<uint64_t, uint64_t> {
 public:
  void Absorb(const uint64_t&, const uint64_t&,
              ReduceContext<uint64_t, uint64_t>&) override {}
  void Finish(ReduceContext<uint64_t, uint64_t>&) override {
    throw std::runtime_error("reducer failed");
  }
};

JobPlan<uint64_t, uint64_t> SpillingPlan(Reducer<uint64_t, uint64_t>* reducer) {
  JobPlan<uint64_t, uint64_t> plan;
  plan.name = "spilling";
  plan.mapper_factory = [](uint64_t) { return std::make_unique<EmitManyMapper>(); };
  plan.reducer = reducer;
  plan.sorted_shuffle = true;
  return plan;
}

InMemoryDataset SpillDataset() {
  std::vector<std::vector<uint64_t>> splits(8, std::vector<uint64_t>{1, 2, 3});
  return InMemoryDataset(std::move(splits), 1024);
}

TEST(SpillCleanupTest, NormalCompletionLeavesDirEmpty) {
  InMemoryDataset ds = SpillDataset();
  MrEnv env;
  env.cost_model.shuffle_buffer_bytes = 1024;  // forces real spills
  NullReducer reducer;
  RunRound(SpillingPlan(&reducer), ds, &env);
  EXPECT_GT(env.stats.counters.Get("shuffle_spill_files"), 0u);
  ASSERT_TRUE(env.spill_dir.created());
  EXPECT_EQ(FilesIn(env.spill_dir.path()), 0u);
}

TEST(SpillCleanupTest, ThrowingReducerLeavesDirEmpty) {
  InMemoryDataset ds = SpillDataset();
  MrEnv env;
  env.cost_model.shuffle_buffer_bytes = 1024;
  ThrowingFinishReducer reducer;
  EXPECT_THROW(RunRound(SpillingPlan(&reducer), ds, &env), std::runtime_error);
  ASSERT_TRUE(env.spill_dir.created());
  EXPECT_EQ(FilesIn(env.spill_dir.path()), 0u);  // plane RAII deleted them
}

TEST(SpillCleanupTest, MidRoundDestructionRemovesEverything) {
  fs::path where;
  {
    // A plane destroyed with undelivered spills (what an exception between
    // Accept and Merge leaves behind) must delete its files itself.
    MrEnv env;
    ShufflePlane<uint64_t, uint64_t> plane(
        [](const uint64_t*, const uint64_t*, size_t n) { return 16 * n; },
        /*sorted=*/true, SpillPolicy{64}, &env.spill_dir);
    for (uint64_t r = 0; r < 4; ++r) {
      TestRun run = RandomSortedRun(r, 100, 32);
      plane.Accept(std::move(run), [](const uint64_t&, const uint64_t&) {});
    }
    EXPECT_GT(plane.spill_files(), 0u);
    ASSERT_TRUE(env.spill_dir.created());
    where = env.spill_dir.path();
    // plane destructor runs first (declared later), then the env's dir.
  }
  EXPECT_FALSE(fs::exists(where));
}

}  // namespace
}  // namespace wavemr
