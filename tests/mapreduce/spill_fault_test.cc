// Fault injection against the spill data plane: failpoint-driven write
// failures (retry, retry exhaustion, the resident fallback that keeps
// results bit-identical), and checksum/truncation detection on reads.
#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <vector>

#include "core/failpoint.h"
#include "core/rng.h"
#include "data/dataset.h"
#include "mapreduce/job.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/spill.h"

namespace wavemr {
namespace {

namespace fs = std::filesystem;

using TestRun = ShuffleRun<uint64_t, uint64_t>;

class SpillFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::DisarmAll(); }

  /// No-backoff policy so retry tests run instantly.
  static IoRetryPolicy FastPolicy() {
    IoRetryPolicy p;
    p.backoff_initial_us = 0;
    return p;
  }

  TestRun MakeRun(uint64_t seed, size_t len) {
    Rng rng(seed);
    TestRun run;
    for (size_t i = 0; i < len; ++i) run.Append(rng.NextBounded(1 << 20), i);
    run.SortByKey();
    return run;
  }

  SpillFileInfo WriteGood(const TestRun& run) {
    SpillFileInfo info;
    info.path = dir_.NextFilePath("fault");
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

  static uint64_t DrainCursor(const SpillFileInfo& info) {
    FileRunCursor<uint64_t, uint64_t> cursor(info, 0, info.num_pairs);
    const uint64_t* k = nullptr;
    const uint64_t* v = nullptr;
    uint64_t total = 0;
    for (uint64_t got; (got = cursor.NextBlock(&k, &v)) > 0;) total += got;
    return total;
  }

  /// XORs one on-disk byte with `mask` (read-modify-write, so the mutation
  /// always changes the stored value).
  static void FlipByte(const fs::path& path, std::streamoff off, char mask) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(off);
    char byte;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ mask);
    f.seekp(off);
    f.write(&byte, 1);
  }

  SpillDir dir_;
};

// ---------------------------------------------------------------------------
// Write-path injection.
// ---------------------------------------------------------------------------

TEST_F(SpillFaultTest, PersistentEnospcFailsAndDeletesPartialFile) {
  ASSERT_TRUE(Failpoints::ArmFromSpec("spill.write.write=error:ENOSPC").ok());
  TestRun run = MakeRun(1, 1000);
  const fs::path path = dir_.NextFilePath("enospc");
  const SpillWriteResult w = WriteSpillFile<uint64_t, uint64_t>(
      path, run.keys.data(), run.values.data(), run.size(), FastPolicy());
  EXPECT_FALSE(w.io.ok());
  EXPECT_EQ(w.io.err, ENOSPC);
  EXPECT_EQ(w.retries, FastPolicy().max_attempts - 1u) << "all retries spent";
  EXPECT_FALSE(fs::exists(path)) << "partial file must not survive a failure";
}

TEST_F(SpillFaultTest, TransientFailureRetriesThenSucceeds) {
  ASSERT_TRUE(Failpoints::ArmFromSpec("spill.write.write=once:ENOSPC").ok());
  TestRun run = MakeRun(2, 500);
  const fs::path path = dir_.NextFilePath("transient");
  const SpillWriteResult w = WriteSpillFile<uint64_t, uint64_t>(
      path, run.keys.data(), run.values.data(), run.size(), FastPolicy());
  ASSERT_TRUE(w.io.ok()) << w.io.ToString();
  EXPECT_EQ(w.retries, 1u);
  // The retried file is complete and fully readable.
  SpillFileInfo info;
  info.path = path;
  info.num_pairs = run.size();
  info.min_key = run.keys.front();
  info.max_key = run.keys.back();
  info.file_bytes = w.file_bytes;
  EXPECT_EQ(DrainCursor(info), run.size());
}

TEST_F(SpillFaultTest, NonTransientErrnoFailsWithoutRetry) {
  ASSERT_TRUE(Failpoints::ArmFromSpec("spill.write.write=error:EIO").ok());
  TestRun run = MakeRun(3, 100);
  const fs::path path = dir_.NextFilePath("eio");
  const SpillWriteResult w = WriteSpillFile<uint64_t, uint64_t>(
      path, run.keys.data(), run.values.data(), run.size(), FastPolicy());
  EXPECT_FALSE(w.io.ok());
  EXPECT_EQ(w.io.err, EIO);
  EXPECT_EQ(w.retries, 0u) << "EIO is not transient";
  EXPECT_FALSE(fs::exists(path));
}

TEST_F(SpillFaultTest, OpenAndCloseFailpointsAreReachable) {
  TestRun run = MakeRun(4, 50);
  for (const char* spec :
       {"spill.write.open=error:EIO", "spill.write.close=error:EIO"}) {
    Failpoints::DisarmAll();
    ASSERT_TRUE(Failpoints::ArmFromSpec(spec).ok());
    const fs::path path = dir_.NextFilePath("oc");
    const SpillWriteResult w = WriteSpillFile<uint64_t, uint64_t>(
        path, run.keys.data(), run.values.data(), run.size(), FastPolicy());
    EXPECT_FALSE(w.io.ok()) << spec;
    EXPECT_FALSE(fs::exists(path)) << spec;
  }
}

// ---------------------------------------------------------------------------
// Read-path detection: corruption and truncation are errors, never silent.
// ---------------------------------------------------------------------------

TEST_F(SpillFaultTest, BitFlipInKeyColumnIsDetected) {
  TestRun run = MakeRun(5, 6000);  // spans two checksum blocks
  SpillFileInfo info = WriteGood(run);
  // Flip one bit in the first key.
  FlipByte(info.path, kSpillHeaderBytes, 0x01);
  try {
    DrainCursor(info);
    FAIL() << "corrupt key column read back without error";
  } catch (const SpillIoError& e) {
    EXPECT_EQ(e.io().op, IoResult::Op::kChecksum) << e.what();
  }
}

TEST_F(SpillFaultTest, CorruptBlockFailsOnlyWhenReached) {
  TestRun run = MakeRun(13, 3 * 4096 + 100);  // four checksum blocks
  SpillFileInfo info = WriteGood(run);
  // Corrupt a key byte in the third block: the two healthy blocks before it
  // are served, and the CRC failure surfaces when NextBlock reaches it.
  FlipByte(info.path,
           static_cast<std::streamoff>(kSpillHeaderBytes + 2 * 4096 * 8 + 24),
           0x01);
  FileRunCursor<uint64_t, uint64_t> cursor(info, 0, info.num_pairs);
  const uint64_t* k = nullptr;
  const uint64_t* v = nullptr;
  uint64_t consumed = 0;
  try {
    for (uint64_t got; (got = cursor.NextBlock(&k, &v)) > 0;) consumed += got;
    FAIL() << "corrupt block read back without error";
  } catch (const SpillIoError& e) {
    EXPECT_EQ(e.io().op, IoResult::Op::kChecksum) << e.what();
    EXPECT_EQ(consumed, 2 * 4096u)
        << "both healthy blocks served before the corrupt one failed";
  }
}

TEST_F(SpillFaultTest, BitFlipInValueColumnIsDetected) {
  TestRun run = MakeRun(6, 1000);
  SpillFileInfo info = WriteGood(run);
  const std::streamoff value_col =
      kSpillHeaderBytes + static_cast<std::streamoff>(run.size() * 8);
  FlipByte(info.path, value_col + 40, '\x80');
  EXPECT_THROW(DrainCursor(info), SpillIoError);
}

TEST_F(SpillFaultTest, TruncatedFileIsDetected) {
  TestRun run = MakeRun(7, 1000);
  SpillFileInfo info = WriteGood(run);
  fs::resize_file(info.path, info.file_bytes / 2);
  EXPECT_THROW(DrainCursor(info), SpillIoError);
}

TEST_F(SpillFaultTest, CorruptFooterIsDetectedAtOpen) {
  TestRun run = MakeRun(8, 100);
  SpillFileInfo info = WriteGood(run);
  // Flip a bit in the stored key-block CRC (footer starts after the columns).
  FlipByte(info.path,
           static_cast<std::streamoff>(kSpillHeaderBytes + run.size() * 16),
           0x01);
  EXPECT_THROW(DrainCursor(info), SpillIoError);
}

TEST_F(SpillFaultTest, ProbeDetectsCorruptionToo) {
  TestRun run = MakeRun(9, 3000);
  SpillFileInfo info = WriteGood(run);
  FlipByte(info.path, static_cast<std::streamoff>(kSpillHeaderBytes + 8 * 100),
           '\x7f');
  SpillKeyProbe<uint64_t> probe(info);
  EXPECT_THROW(probe.LowerBound(run.keys[100]), SpillIoError);
}

TEST_F(SpillFaultTest, ReadFailpointsSurfaceAsSpillIoError) {
  TestRun run = MakeRun(10, 500);
  SpillFileInfo info = WriteGood(run);
  ASSERT_TRUE(Failpoints::ArmFromSpec("spill.read.open=error:EIO").ok());
  EXPECT_THROW(DrainCursor(info), SpillIoError);
  Failpoints::DisarmAll();
  ASSERT_TRUE(Failpoints::ArmFromSpec("spill.read.read=error:EIO").ok());
  EXPECT_THROW(DrainCursor(info), SpillIoError);
}

// ---------------------------------------------------------------------------
// Graceful degradation: a full disk pins runs resident; results match the
// healthy run bit for bit.
// ---------------------------------------------------------------------------

class EmitManyMapper : public MapperBase<EmitManyMapper, uint64_t, uint64_t> {
 public:
  template <typename Ctx>
  void RunImpl(Ctx& ctx) {
    for (uint64_t i = 0; i < 256; ++i) {
      ctx.Emit((ctx.split_id() * 977 + i * 131) % 1024, i);
    }
  }
};

class CollectingReducer : public Reducer<uint64_t, uint64_t> {
 public:
  void Absorb(const uint64_t& k, const uint64_t& v,
              ReduceContext<uint64_t, uint64_t>&) override {
    pairs.emplace_back(k, v);
  }
  void Finish(ReduceContext<uint64_t, uint64_t>&) override {}
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
};

std::vector<std::pair<uint64_t, uint64_t>> RunSpillingJob(MrEnv* env) {
  CollectingReducer reducer;
  JobPlan<uint64_t, uint64_t> plan;
  plan.name = "fault-identity";
  plan.mapper_factory = [](uint64_t) {
    return std::make_unique<EmitManyMapper>();
  };
  plan.reducer = &reducer;
  env->sorted_shuffle = true;
  std::vector<std::vector<uint64_t>> splits(8, std::vector<uint64_t>{1, 2, 3});
  InMemoryDataset ds(std::move(splits), 1024);
  RunRound(plan, ds, env);
  return std::move(reducer.pairs);
}

TEST_F(SpillFaultTest, EnospcEverywhereKeepsResultsBitIdentical) {
  MrEnv clean_env;
  clean_env.io.shuffle_buffer_bytes = 1024;  // forces real spills
  const auto clean = RunSpillingJob(&clean_env);
  ASSERT_GT(clean_env.stats.counters.Get("shuffle_spill_files"), 0u);
  EXPECT_EQ(clean_env.stats.counters.Get("shuffle_spill_fallbacks"), 0u);

  // Same job with every spill write failing: the plane must pin runs
  // resident and deliver the same pairs in the same order.
  ASSERT_TRUE(Failpoints::ArmFromSpec("spill.write.write=error:ENOSPC").ok());
  MrEnv faulty_env;
  faulty_env.io.shuffle_buffer_bytes = 1024;
  const auto faulty = RunSpillingJob(&faulty_env);
  Failpoints::DisarmAll();

  EXPECT_GT(faulty_env.stats.counters.Get("shuffle_spill_fallbacks"), 0u);
  EXPECT_EQ(faulty_env.stats.counters.Get("shuffle_spill_files"), 0u);
  ASSERT_EQ(faulty.size(), clean.size());
  for (size_t i = 0; i < clean.size(); ++i) {
    ASSERT_EQ(faulty[i], clean[i]) << "pair " << i << " diverged";
  }
  // No torn spill files left behind.
  if (faulty_env.spill_dir.created()) {
    size_t files = 0;
    for (const auto& entry :
         fs::directory_iterator(faulty_env.spill_dir.path())) {
      (void)entry;
      ++files;
    }
    EXPECT_EQ(files, 0u);
  }
}

TEST_F(SpillFaultTest, ShufflePlaneCountsFallbacksAndRetries) {
  ASSERT_TRUE(Failpoints::ArmFromSpec("spill.write.write=error:ENOSPC").ok());
  MrEnv env;
  ShufflePlane<uint64_t, uint64_t> plane(
      [](const uint64_t*, const uint64_t*, size_t n) { return 16 * n; },
      /*sorted=*/true, SpillPolicy{64}, &env.spill_dir);
  for (uint64_t r = 0; r < 4; ++r) {
    TestRun run = MakeRun(20 + r, 100);
    plane.Accept(std::move(run), [](const uint64_t&, const uint64_t&) {});
  }
  EXPECT_EQ(plane.spill_files(), 0u);
  EXPECT_GT(plane.spill_fallbacks(), 0u);
  EXPECT_GT(plane.spill_retries(), 0u) << "ENOSPC is transient, so the "
                                          "plane retried before pinning";
}

TEST_F(SpillFaultTest, ExhaustedRetriesLeaveSpillDirEmpty) {
  ASSERT_TRUE(Failpoints::ArmFromSpec("spill.write.write=error:ENOSPC").ok());
  SpillDir dir;
  {
    ShufflePlane<uint64_t, uint64_t> plane(
        [](const uint64_t*, const uint64_t*, size_t n) { return 16 * n; },
        /*sorted=*/true, SpillPolicy{2000 * 16}, &dir, FastPolicy());
    for (uint64_t r = 0; r < 8; ++r) {
      plane.Accept(MakeRun(100 + r, 2000),
                   [](const uint64_t&, const uint64_t&) {});
    }
    EXPECT_EQ(plane.spill_files(), 0u);
    EXPECT_GT(plane.spill_fallbacks(), 0u);
    EXPECT_GT(plane.spill_retries(), 0u) << "ENOSPC is transient: retried "
                                            "before pinning";
    Failpoints::DisarmAll();
    // Degraded but correct: the pinned-resident plane still merges fine.
    uint64_t merged = 0;
    plane.Merge([&merged](const uint64_t&, const uint64_t&) { ++merged; });
    EXPECT_EQ(merged, 8u * 2000u);
  }
  if (dir.created()) {
    EXPECT_TRUE(fs::is_empty(dir.path())) << "no torn spill file left behind";
  }
}

}  // namespace
}  // namespace wavemr
