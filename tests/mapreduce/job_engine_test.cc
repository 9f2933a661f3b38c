#include "mapreduce/job.h"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

#include "data/dataset.h"

namespace wavemr {
namespace {

// Word-count-style fixture: count keys across splits.
class CountMapper : public MapperBase<CountMapper, uint64_t, uint64_t> {
 public:
  template <typename Ctx>
  void RunImpl(Ctx& ctx) {
    ctx.input().Scan([&ctx](uint64_t key) { ctx.Emit(key, 1); });
  }
};

class CountReducer : public Reducer<uint64_t, uint64_t> {
 public:
  void Absorb(const uint64_t& k, const uint64_t& v,
              ReduceContext<uint64_t, uint64_t>& ctx) override {
    (void)ctx;
    counts[k] += v;
    absorbed.emplace_back(k, v);
  }
  void Finish(ReduceContext<uint64_t, uint64_t>& ctx) override { (void)ctx; }

  std::map<uint64_t, uint64_t> counts;
  std::vector<std::pair<uint64_t, uint64_t>> absorbed;
};

InMemoryDataset TinyDataset() {
  return InMemoryDataset({{3, 1, 3}, {1, 1}, {7}}, 8);
}

JobPlan<uint64_t, uint64_t> CountPlan(CountReducer* reducer) {
  JobPlan<uint64_t, uint64_t> plan;
  plan.name = "count";
  plan.mapper_factory = [](uint64_t) { return std::make_unique<CountMapper>(); };
  plan.reducer = reducer;
  plan.wire_bytes = [](const uint64_t*, const uint64_t*, size_t n) {
    return uint64_t{8} * n;
  };
  return plan;
}

TEST(JobEngineTest, CountsAreCorrect) {
  InMemoryDataset ds = TinyDataset();
  MrEnv env;
  CountReducer reducer;
  RunRound(CountPlan(&reducer), ds, &env);
  EXPECT_EQ(reducer.counts[1], 3u);
  EXPECT_EQ(reducer.counts[3], 2u);
  EXPECT_EQ(reducer.counts[7], 1u);
}

TEST(JobEngineTest, ShuffleAccountingWithoutCombiner) {
  InMemoryDataset ds = TinyDataset();
  MrEnv env;
  CountReducer reducer;
  RoundStats round = RunRound(CountPlan(&reducer), ds, &env);
  // One pair per record: 6 records * 8 bytes.
  EXPECT_EQ(round.shuffle_pairs, 6u);
  EXPECT_EQ(round.shuffle_bytes, 48u);
  EXPECT_EQ(round.map_tasks, 3u);
  EXPECT_EQ(env.stats.counters.Get("map_output_pairs"), 6u);
  EXPECT_EQ(env.stats.counters.Get("map_records_read"), 6u);
}

TEST(JobEngineTest, CombinerReducesShuffle) {
  InMemoryDataset ds = TinyDataset();
  MrEnv env;
  CountReducer reducer;
  auto plan = CountPlan(&reducer);
  plan.combiner = [](const uint64_t& a, const uint64_t& b) { return a + b; };
  RoundStats round = RunRound(plan, ds, &env);
  // Distinct keys per split: {3,1}, {1}, {7} -> 4 pairs.
  EXPECT_EQ(round.shuffle_pairs, 4u);
  EXPECT_EQ(round.shuffle_bytes, 32u);
  // Results identical to the uncombined run.
  EXPECT_EQ(reducer.counts[1], 3u);
  EXPECT_EQ(reducer.counts[3], 2u);
  EXPECT_EQ(env.stats.counters.Get("map_output_pairs"), 6u);      // pre-combine
  EXPECT_EQ(env.stats.counters.Get("combine_output_pairs"), 4u);  // post-combine
}

TEST(JobEngineTest, SortedShuffleDeliversKeyOrder) {
  InMemoryDataset ds = TinyDataset();
  MrEnv env;
  env.sorted_shuffle = true;
  CountReducer reducer;
  RunRound(CountPlan(&reducer), ds, &env);
  ASSERT_EQ(reducer.absorbed.size(), 6u);
  for (size_t i = 1; i < reducer.absorbed.size(); ++i) {
    EXPECT_LE(reducer.absorbed[i - 1].first, reducer.absorbed[i].first);
  }
  EXPECT_EQ(reducer.counts[1], 3u);
}

// Regression for the Start-ordering bug: the streaming path used to call
// Start before mapping while the sorted path called it after the map phase
// (and the old sorted path could have re-run a pre-sort Start's
// allocations). Both delivery modes must call Start exactly once, before
// any Absorb, with Finish exactly once after everything.
class LifecycleReducer : public Reducer<uint64_t, uint64_t> {
 public:
  void Start(ReduceContext<uint64_t, uint64_t>& ctx) override {
    (void)ctx;
    ++starts;
    baseline.push_back(0);  // Start-time allocation: doubled if Start re-ran
  }
  void Absorb(const uint64_t& k, const uint64_t& v,
              ReduceContext<uint64_t, uint64_t>& ctx) override {
    (void)k;
    (void)v;
    (void)ctx;
    if (starts != 1 || finishes != 0) ++out_of_order_absorbs;
    ++absorbs;
  }
  void Finish(ReduceContext<uint64_t, uint64_t>& ctx) override {
    (void)ctx;
    ++finishes;
  }

  int starts = 0;
  int absorbs = 0;
  int finishes = 0;
  int out_of_order_absorbs = 0;
  std::vector<int> baseline;
};

TEST(JobEngineTest, StartRunsOnceBeforeAbsorbsInBothDeliveryModes) {
  InMemoryDataset ds = TinyDataset();
  for (bool sorted : {false, true}) {
    MrEnv env;
    env.sorted_shuffle = sorted;
    LifecycleReducer reducer;
    JobPlan<uint64_t, uint64_t> plan;
    plan.name = sorted ? "lifecycle-sorted" : "lifecycle-streaming";
    plan.mapper_factory = [](uint64_t) { return std::make_unique<CountMapper>(); };
    plan.reducer = &reducer;
    RunRound(plan, ds, &env);
    EXPECT_EQ(reducer.starts, 1) << "sorted=" << sorted;
    EXPECT_EQ(reducer.finishes, 1) << "sorted=" << sorted;
    EXPECT_EQ(reducer.absorbs, 6) << "sorted=" << sorted;
    EXPECT_EQ(reducer.out_of_order_absorbs, 0) << "sorted=" << sorted;
    EXPECT_EQ(reducer.baseline.size(), 1u) << "sorted=" << sorted;
  }
}

TEST(JobEngineTest, SimulatedTimeIsPositiveAndDecomposed) {
  InMemoryDataset ds = TinyDataset();
  MrEnv env;
  CountReducer reducer;
  RoundStats round = RunRound(CountPlan(&reducer), ds, &env);
  EXPECT_GT(round.map_makespan_s, 0.0);
  EXPECT_GT(round.shuffle_s, 0.0);
  EXPECT_GE(round.reduce_s, 0.0);
  EXPECT_DOUBLE_EQ(round.overhead_s, env.cost_model.job_overhead_s);
  EXPECT_GT(round.TotalSeconds(), env.cost_model.job_overhead_s);
  EXPECT_EQ(env.stats.NumRounds(), 1u);
  EXPECT_DOUBLE_EQ(env.stats.TotalSeconds(), round.TotalSeconds());
}

TEST(JobEngineTest, LowerBandwidthSlowsShuffleOnly) {
  InMemoryDataset ds = TinyDataset();
  CountReducer r1, r2;
  MrEnv fast, slow;
  fast.cost_model.bandwidth_fraction = 1.0;
  slow.cost_model.bandwidth_fraction = 0.1;
  RoundStats a = RunRound(CountPlan(&r1), ds, &fast);
  RoundStats b = RunRound(CountPlan(&r2), ds, &slow);
  EXPECT_DOUBLE_EQ(a.map_makespan_s, b.map_makespan_s);
  EXPECT_NEAR(b.shuffle_s, a.shuffle_s * 10.0, 1e-9);
}

TEST(JobEngineTest, BroadcastBytesChargeCacheOnce) {
  InMemoryDataset ds = TinyDataset();
  MrEnv env;
  env.config.SetUint("x", 5);  // config is not data communication
  env.cache.Put("blob", std::string(100, 'a'));
  CountReducer reducer;
  RoundStats round = RunRound(CountPlan(&reducer), ds, &env);
  uint64_t slaves = env.cluster.NumSlaves();
  EXPECT_EQ(round.broadcast_bytes, 100 * slaves);

  // The cache blob is charged only once.
  CountReducer reducer2;
  RoundStats round2 = RunRound(CountPlan(&reducer2), ds, &env);
  EXPECT_EQ(round2.broadcast_bytes, 0u);

  // A blob added between rounds is charged in the next round.
  env.cache.Put("r3", std::string(40, 'b'));
  CountReducer reducer3;
  RoundStats round3 = RunRound(CountPlan(&reducer3), ds, &env);
  EXPECT_EQ(round3.broadcast_bytes, 40 * slaves);
}

// State round-trip: round 1 finds no state, then saves; round 2 loads it
// back. A load moves the blob out of the split's slot, so a second load in
// the same round finds nothing.
std::string StateOf(uint64_t split) { return "state-of-" + std::to_string(split); }

class SaveMapper : public MapperBase<SaveMapper, uint64_t, uint64_t> {
 public:
  template <typename Ctx>
  void RunImpl(Ctx& ctx) {
    EXPECT_EQ(ctx.LoadState().status().code(), StatusCode::kNotFound);
    ctx.SaveState(StateOf(ctx.split_id()));
  }
};

class LoadMapper : public MapperBase<LoadMapper, uint64_t, uint64_t> {
 public:
  template <typename Ctx>
  void RunImpl(Ctx& ctx) {
    auto blob = ctx.LoadState();
    ASSERT_TRUE(blob.ok());
    EXPECT_EQ(*blob, StateOf(ctx.split_id()));
    EXPECT_EQ(ctx.LoadState().status().code(), StatusCode::kNotFound);
    ctx.Emit(ctx.split_id(), 1);
  }
};

// Saves a blob of kBlobBytes and loads it back in the same task.
constexpr size_t kBlobBytes = 1000;
class SaveLoadMapper : public MapperBase<SaveLoadMapper, uint64_t, uint64_t> {
 public:
  template <typename Ctx>
  void RunImpl(Ctx& ctx) {
    ctx.SaveState(std::string(kBlobBytes, 's'));
    auto blob = ctx.LoadState();
    ASSERT_TRUE(blob.ok());
    EXPECT_EQ(blob->size(), kBlobBytes);
  }
};

TEST(JobEngineTest, SplitStatePersistsAcrossRounds) {
  InMemoryDataset ds = TinyDataset();
  MrEnv env;
  CountReducer r1, r2, r3;
  JobPlan<uint64_t, uint64_t> save;
  save.name = "save";
  save.mapper_factory = [](uint64_t) { return std::make_unique<SaveMapper>(); };
  save.reducer = &r1;
  RunRound(save, ds, &env);

  JobPlan<uint64_t, uint64_t> load;
  load.name = "load";
  load.mapper_factory = [](uint64_t) { return std::make_unique<LoadMapper>(); };
  load.reducer = &r2;
  RoundStats round = RunRound(load, ds, &env);
  EXPECT_EQ(round.shuffle_pairs, 3u);  // one per split; all states found
  EXPECT_EQ(env.stats.NumRounds(), 2u);

  // State is charged as local disk IO on both sides: with one slot per
  // split, no task overhead and 1 MB/s disks, the makespan is one task's
  // save + load, 2 x kBlobBytes.
  env.cluster = ClusterSpec::Uniform(1, 1.0, /*map_slots=*/3);
  env.cost_model.task_overhead_s = 0.0;
  env.cost_model.disk_mbps = 1.0;
  JobPlan<uint64_t, uint64_t> save_load;
  save_load.name = "save-load";
  save_load.mapper_factory = [](uint64_t) {
    return std::make_unique<SaveLoadMapper>();
  };
  save_load.reducer = &r3;
  round = RunRound(save_load, ds, &env);
  EXPECT_EQ(round.map_makespan_s, env.cost_model.DiskSeconds(2 * kBlobBytes));
}

TEST(JobEngineTest, ParallelRoundMatchesSerial) {
  InMemoryDataset ds = TinyDataset();
  MrEnv serial_env, parallel_env;
  parallel_env.threads = 8;
  CountReducer serial_red, parallel_red;
  RoundStats a = RunRound(CountPlan(&serial_red), ds, &serial_env);
  RoundStats b = RunRound(CountPlan(&parallel_red), ds, &parallel_env);
  EXPECT_EQ(serial_red.counts, parallel_red.counts);
  EXPECT_EQ(serial_red.absorbed, parallel_red.absorbed);  // split-order merge
  EXPECT_EQ(a.shuffle_pairs, b.shuffle_pairs);
  EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes);
  EXPECT_DOUBLE_EQ(a.map_makespan_s, b.map_makespan_s);
  EXPECT_EQ(serial_env.stats.counters.values(),
            parallel_env.stats.counters.values());
  EXPECT_EQ(b.threads_used, 8);
  EXPECT_EQ(a.threads_used, 1);
}

TEST(JobEngineTest, ParallelStateRoundTrip) {
  InMemoryDataset ds = TinyDataset();
  MrEnv env;
  env.threads = 4;
  CountReducer r1, r2;
  JobPlan<uint64_t, uint64_t> save;
  save.name = "save";
  save.mapper_factory = [](uint64_t) { return std::make_unique<SaveMapper>(); };
  save.reducer = &r1;
  RunRound(save, ds, &env);

  JobPlan<uint64_t, uint64_t> load;
  load.name = "load";
  load.mapper_factory = [](uint64_t) { return std::make_unique<LoadMapper>(); };
  load.reducer = &r2;
  RoundStats round = RunRound(load, ds, &env);
  EXPECT_EQ(round.shuffle_pairs, 3u);
  // Pool persists across rounds on one MrEnv.
  EXPECT_EQ(round.threads_used, 4);
}

// Local classes cannot hold member templates, so the CRTP mappers used by
// the tests below live at namespace scope.
class ThrowingMapper : public MapperBase<ThrowingMapper, uint64_t, uint64_t> {
 public:
  template <typename Ctx>
  void RunImpl(Ctx& ctx) {
    if (ctx.split_id() == 1) throw std::runtime_error("split 1 failed");
    ctx.Emit(ctx.split_id(), 1);
  }
};

class ExpensiveMapper : public MapperBase<ExpensiveMapper, uint64_t, uint64_t> {
 public:
  template <typename Ctx>
  void RunImpl(Ctx& ctx) {
    ctx.ChargeCpuNs(5e9);  // 5 simulated seconds
  }
};

TEST(JobEngineTest, MapperExceptionPropagatesFromParallelRound) {
  // Many more splits than workers, failing early: the engine must drain the
  // still-queued tasks before unwinding (they reference RunRound's frame).
  std::vector<std::vector<uint64_t>> splits(32, std::vector<uint64_t>{1});
  InMemoryDataset ds(std::move(splits), 8);
  MrEnv env;
  env.threads = 2;
  CountReducer reducer;
  JobPlan<uint64_t, uint64_t> plan;
  plan.name = "throwing";
  plan.mapper_factory = [](uint64_t) { return std::make_unique<ThrowingMapper>(); };
  plan.reducer = &reducer;
  EXPECT_THROW(RunRound(plan, ds, &env), std::runtime_error);
}

TEST(JobEngineTest, PartitionedReduceDeliversTheExactSingleMergeStream) {
  // Wider dataset so 8 key-range partitions are non-trivial.
  std::vector<std::vector<uint64_t>> splits;
  for (uint64_t j = 0; j < 6; ++j) {
    std::vector<uint64_t> keys;
    for (uint64_t i = 0; i < 40; ++i) keys.push_back((j * 977 + i * 131) % 256);
    splits.push_back(std::move(keys));
  }
  InMemoryDataset ds(std::move(splits), 256);

  MrEnv reference_env;
  reference_env.reduce_tasks = 1;
  reference_env.sorted_shuffle = true;
  CountReducer reference;
  RoundStats ref_round = RunRound(CountPlan(&reference), ds, &reference_env);
  EXPECT_EQ(ref_round.reduce_tasks_used, 1);

  for (int reduce_tasks : {2, 4, 8}) {
    for (int threads : {1, 4}) {
      MrEnv env;
      env.threads = threads;
      env.reduce_tasks = reduce_tasks;
      env.sorted_shuffle = true;
      CountReducer reducer;
      RoundStats round = RunRound(CountPlan(&reducer), ds, &env);
      EXPECT_EQ(round.reduce_tasks_used, reduce_tasks)
          << "threads " << threads;
      // The absorbed sequence -- not just the aggregates -- is identical.
      EXPECT_EQ(reducer.absorbed, reference.absorbed)
          << "reduce_tasks " << reduce_tasks << " threads " << threads;
      EXPECT_EQ(reducer.counts, reference.counts);
      EXPECT_EQ(env.config.GetUint("wavemr.reduce_tasks").value(),
                static_cast<uint64_t>(reduce_tasks));
    }
  }
}

TEST(JobEngineTest, ReduceTasksDefaultMatchesThreadCount) {
  InMemoryDataset ds = TinyDataset();
  MrEnv env;
  env.threads = 2;  // reduce_tasks stays 0 -> match the round's threads
  env.sorted_shuffle = true;
  CountReducer reducer;
  RoundStats round = RunRound(CountPlan(&reducer), ds, &env);
  EXPECT_EQ(round.reduce_tasks_used, 2);
  EXPECT_EQ(round.spill_files, 0u);  // default budget: nothing spilled
  // Streaming rounds ignore reduce partitioning entirely.
  MrEnv streaming_env;
  streaming_env.threads = 4;
  CountReducer streaming_reducer;
  RoundStats streaming = RunRound(CountPlan(&streaming_reducer), ds, &streaming_env);
  EXPECT_EQ(streaming.reduce_tasks_used, 1);
}

TEST(JobEngineTest, SpillStatsFlowIntoRoundAndCounters) {
  std::vector<std::vector<uint64_t>> splits(6, std::vector<uint64_t>{});
  for (uint64_t j = 0; j < splits.size(); ++j) {
    for (uint64_t i = 0; i < 64; ++i) splits[j].push_back((j * 31 + i) % 128);
  }
  InMemoryDataset ds(std::move(splits), 128);
  MrEnv env;
  env.io.shuffle_buffer_bytes = 512;
  env.sorted_shuffle = true;
  CountReducer reducer;
  RoundStats round = RunRound(CountPlan(&reducer), ds, &env);
  EXPECT_GT(round.spill_files, 0u);
  EXPECT_GT(round.spill_bytes, 0u);
  EXPECT_GT(round.spill_read_bytes, 0u);
  EXPECT_GT(round.spill_s, 0.0);
  EXPECT_EQ(env.stats.counters.Get("shuffle_spill_files"), round.spill_files);
  EXPECT_EQ(env.stats.counters.Get("shuffle_spill_bytes"), round.spill_bytes);
  // TotalSeconds deliberately excludes spill_s (see RoundStats::spill_s).
  EXPECT_DOUBLE_EQ(round.TotalSeconds(), round.overhead_s + round.map_makespan_s +
                                             round.shuffle_s + round.reduce_s);
}

TEST(JobEngineTest, ChargedCpuShowsUpInMakespan) {
  InMemoryDataset ds = TinyDataset();

  MrEnv env;
  CountReducer reducer;
  JobPlan<uint64_t, uint64_t> plan;
  plan.name = "expensive";
  plan.mapper_factory = [](uint64_t) { return std::make_unique<ExpensiveMapper>(); };
  plan.reducer = &reducer;
  RoundStats round = RunRound(plan, ds, &env);
  // 3 tasks of >=5s on a 30-slot cluster: one wave, bounded below by the
  // slowest node's 5 / speed.
  EXPECT_GT(round.map_makespan_s, 3.0);
}

}  // namespace
}  // namespace wavemr
