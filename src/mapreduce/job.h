#ifndef WAVEMR_MAPREDUCE_JOB_H_
#define WAVEMR_MAPREDUCE_JOB_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/flat_hash.h"
#include "core/io.h"
#include "core/logging.h"
#include "core/status.h"
#include "core/thread_pool.h"
#include "data/dataset.h"
#include "mapreduce/cluster.h"
#include "mapreduce/cost_model.h"
#include "mapreduce/counters.h"
#include "mapreduce/job_config.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/spill.h"
#include "mapreduce/split_access.h"
#include "mapreduce/state_store.h"
#include "mapreduce/stats.h"

namespace wavemr {

/// Shared runtime of one algorithm execution: the simulated cluster, the
/// cost model, the two master->worker broadcast channels (JobConfig and
/// DistributedCache), per-task persistent state, counters, and the
/// accumulated per-round statistics. Multi-round algorithms (H-WTopk) reuse
/// one MrEnv across their rounds, exactly like the paper reuses the
/// JobTracker + state files across its three MapReduce jobs.
struct MrEnv {
  ClusterSpec cluster = ClusterSpec::PaperCluster();
  CostModel cost_model;
  JobConfig config;
  DistributedCache cache;
  StateStore state;
  JobStats stats;

  /// Map tasks per round to execute concurrently: 1 = serial (the default),
  /// 0 = ThreadPool::DefaultThreadCount(), N > 1 = a pool of N workers. Any
  /// value produces bit-identical results; only wall-clock changes.
  int threads = 1;

  /// Equi-depth reduce ranges for sorted rounds: 0 = match the round's map
  /// thread count, N >= 1 = exactly N planned ranges, merged by min(N,
  /// threads) workers. Any value produces bit-identical results (workers
  /// merge disjoint global-rank slices that are absorbed in rank order,
  /// exactly the full merge's stream); only wall-clock changes.
  int reduce_tasks = 0;

  /// Temp directory for external shuffle spill files, lazily created on the
  /// first real spill and removed (recursively) when the env dies. Rounds
  /// delete their own files as they complete -- including on exceptions --
  /// so the env-level remove is the crash backstop, not the cleanup path.
  SpillDir spill_dir;

  /// Consolidated spill I/O knobs (backend, queue/prefetch depth, retry,
  /// buffer override). Every round's ShufflePlane and file cursor runs on
  /// the backend these options name; any choice is bit-identical, only
  /// wall-clock changes.
  IoOptions io;

  /// Retained-run budget for sorted shuffles: IoOptions wins when set,
  /// otherwise the deprecated CostModel::shuffle_buffer_bytes spelling.
  uint64_t ResolvedShuffleBufferBytes() const {
    return io.shuffle_buffer_bytes != 0 ? io.shuffle_buffer_bytes
                                        : cost_model.shuffle_buffer_bytes;
  }

  /// Lazily created I/O engine named by `io`, shared by all rounds (the
  /// async backend's workers persist across H-WTopk's three rounds, like
  /// the map pool).
  IoBackend* EnsureIoBackend() {
    if (io_backend_ == nullptr) io_backend_ = MakeIoBackend(io);
    return io_backend_.get();
  }

  /// Lazily created worker pool, reused across rounds (H-WTopk runs three
  /// rounds on one MrEnv; respawning threads per round would dominate small
  /// jobs).
  ThreadPool* EnsurePool(int num_threads) {
    if (pool_ == nullptr || pool_->num_threads() != num_threads) {
      pool_ = std::make_unique<ThreadPool>(num_threads);
    }
    return pool_.get();
  }

 private:
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<IoBackend> io_backend_;
};

namespace internal {

/// Emit sink that appends pairs verbatim to the task's columnar run, in
/// emit order (no combiner).
template <typename K2, typename V2>
class BufferSink {
 public:
  explicit BufferSink(ShuffleRun<K2, V2>* out) : out_(out) {}
  void Emit(const K2& key, const V2& value) { out_->Append(key, value); }

 private:
  ShuffleRun<K2, V2>* out_;
};

/// Emit sink that merges values with equal keys inside the task before the
/// shuffle (Hadoop's Combiner), accumulating into a flat open-addressing
/// table; the engine flushes it at task close. The combiner function is only
/// reached on duplicate keys -- first-time keys are a single probe.
template <typename K2, typename V2>
class CombineSink {
 public:
  explicit CombineSink(const std::function<V2(const V2&, const V2&)>* combiner)
      : combiner_(combiner) {}

  void Emit(const K2& key, const V2& value) {
    auto [slot, inserted] = buffer_.FindOrEmplace(key, value);
    if (!inserted) *slot = (*combiner_)(*slot, value);
  }

  const FlatHashCounter<K2, V2>& buffer() const { return buffer_; }

 private:
  FlatHashCounter<K2, V2> buffer_;
  const std::function<V2(const V2&, const V2&)>* combiner_;
};

/// Everything one map task produces, buffered on its worker thread and
/// merged by the driver in split-index order. Buffering per task (instead of
/// absorbing into the reducer from the mapper thread) is what makes the
/// round's outcome independent of task completion order. Under a sorted
/// shuffle the run is already key-sorted by the worker thread, so the
/// driver's only serial work is the k-way merge.
template <typename K2, typename V2>
struct MapTaskOutput {
  TaskCost cost;
  Counters counters;             // task-private counter increments
  ShuffleRun<K2, V2> run;        // post-combine, columnar, in emit order
  uint64_t combine_output_pairs = 0;
  bool combined = false;
};

/// Outcome of one sorted-round delivery: the partition count actually used
/// plus the planned per-range load for RoundStats.
struct SortedMergeResult {
  int reduce_tasks_used = 1;
  uint64_t range_max_pairs = 0;  // planned pairs in the largest range
  uint64_t range_min_pairs = 0;  // planned pairs in the smallest range
};

/// Sorted-round delivery: merges the plane's retained + spilled runs into
/// `absorb` in one key-sorted stream. `reduce_tasks` = R plans R equi-depth
/// ranges at exact global ranks r*n/R, so each holds n/R pairs within one
/// regardless of key skew; the planned loads are reported, and R bounds the
/// merge workers at min(R, pool_threads).
///
/// Parallel delivery cuts the merged stream into fixed-size rank slices.
/// Workers claim slices in ascending order from one counter, cut each at
/// both ends (ShufflePlane::CutForRank binary-searches every resident run in
/// memory and every spilled run on disk), merge it through the loser tree
/// into a columnar buffer, and stage it by slice number; the driver absorbs
/// slices 0, 1, 2, ... as each becomes ready. A worker may only claim a
/// slice within 2*pool_threads + 2 of the absorb frontier, so staging stays
/// a small slice-sized fraction of the payload. The absorbed stream is
/// exactly the single full merge's, so results are bit-identical for every
/// (reduce_tasks, threads, buffer size, slice size) combination. With one
/// thread or one range the plane merges straight into the reducer.
///
/// `slice_pairs` overrides the slice size (0 = auto); tests use tiny slices
/// to force many-slice schedules.
template <typename K, typename V, typename Absorb>
SortedMergeResult DeliverSortedMerge(ShufflePlane<K, V>& plane, MrEnv* env,
                                     int reduce_tasks, int pool_threads,
                                     Absorb&& absorb,
                                     uint64_t slice_pairs = 0) {
  SortedMergeResult result;
  const uint64_t n = plane.pairs();
  result.range_max_pairs = n;
  result.range_min_pairs = n;
  if (reduce_tasks > 1 && n > 0) {
    // Equi-depth range r holds ranks [r*n/R, (r+1)*n/R), so every range
    // holds floor(n/R) or ceil(n/R) pairs; when n < R the excess ranges are
    // planned empty.
    const uint64_t R = static_cast<uint64_t>(reduce_tasks);
    result.reduce_tasks_used = reduce_tasks;
    result.range_max_pairs = (n + R - 1) / R;
    result.range_min_pairs = n / R;
  }
  if (pool_threads <= 1 || result.reduce_tasks_used <= 1) {
    plane.Merge(absorb);
    return result;
  }

  struct Staged {
    std::vector<K> keys;
    std::vector<V> values;
    bool ready = false;
  };
  // Coarse enough that the two cut searches per slice are noise, fine
  // enough that every worker has slices to claim.
  const uint64_t R = static_cast<uint64_t>(reduce_tasks);
  const uint64_t slice =
      slice_pairs > 0 ? slice_pairs : std::max<uint64_t>(4096, n / (R * 8));
  const uint64_t num_slices = (n + slice - 1) / slice;
  const uint64_t window = 2 * static_cast<uint64_t>(pool_threads) + 2;
  ThreadPool* pool = env->EnsurePool(pool_threads);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Staged> staged(num_slices);
  uint64_t next = 0;      // next slice a worker claims
  uint64_t frontier = 0;  // next slice the driver absorbs
  bool stop = false;
  std::exception_ptr worker_error;
  auto worker = [&] {
    try {
      for (;;) {
        uint64_t k = 0;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] {
            return stop || next >= num_slices || next < frontier + window;
          });
          if (stop || next >= num_slices) return;
          k = next++;
        }
        const uint64_t begin = k * slice;
        const uint64_t end = std::min(n, begin + slice);
        const bool has_hi = end < n;
        const MergeCut<K> lo_cut = plane.CutForRank(begin);
        const MergeCut<K> hi_cut =
            has_hi ? plane.CutForRank(end) : MergeCut<K>{};
        Staged s;
        s.keys.reserve(end - begin);
        s.values.reserve(end - begin);
        plane.MergeCutRange(lo_cut, has_hi, hi_cut,
                            [&s](const K& key, const V& value) {
                              s.keys.push_back(key);
                              s.values.push_back(value);
                            });
        s.ready = true;
        {
          std::lock_guard<std::mutex> lock(mu);
          staged[k] = std::move(s);
        }
        cv.notify_all();
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (!worker_error) worker_error = std::current_exception();
        stop = true;
      }
      cv.notify_all();
    }
  };
  const int workers = std::min(pool_threads, reduce_tasks);
  std::vector<std::future<void>> futs;
  futs.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) futs.push_back(pool->Submit(worker));
  try {
    for (uint64_t k = 0; k < num_slices; ++k) {
      Staged s;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return stop || staged[k].ready; });
        if (stop) break;
        s = std::move(staged[k]);
        frontier = k + 1;
      }
      cv.notify_all();  // the window moved: a worker may claim a slice
      for (size_t i = 0; i < s.keys.size(); ++i) {
        absorb(s.keys[i], s.values[i]);
      }
    }
  } catch (...) {
    // The reducer threw on the driver. Running workers reference this
    // frame's plane and locals; stop them and wait them out before the
    // frame unwinds.
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    cv.notify_all();
    for (auto& f : futs) f.wait();
    throw;
  }
  for (auto& f : futs) f.get();
  if (worker_error) std::rethrow_exception(worker_error);
  return result;
}

}  // namespace internal

/// Context handed to a Mapper: its input split, the broadcast channels,
/// persistent state, counters, and the Emit sink. All interactions are cost
/// accounted. One MapContext is confined to its map task's thread.
///
/// Sink is a compile-time parameter (BufferSink or CombineSink), so Emit is
/// a fully inlined store/probe -- no std::function hop per pair. Emitted
/// pair counts accumulate locally and reach the task Counters in one Add at
/// close (the engine calls FlushEmitCount), not one locked lookup per pair.
template <typename K2, typename V2, typename Sink>
class MapContext {
 public:
  MapContext(SplitAccess* input, MrEnv* env, TaskCost* cost, Counters* counters,
             Sink* sink)
      : input_(input), env_(env), cost_(cost), counters_(counters), sink_(sink),
        emit_cpu_ns_(env->cost_model.emit_cpu_ns_per_pair) {}

  /// Emits an intermediate pair (charged per pair; wire bytes are accounted
  /// after the optional combine stage).
  void Emit(const K2& key, const V2& value) {
    cost_->cpu_ns += emit_cpu_ns_;
    ++emitted_pairs_;
    sink_->Emit(key, value);
  }

  /// Charges algorithm-specific CPU work (e.g. a local wavelet transform).
  void ChargeCpuNs(double ns) { cost_->cpu_ns += ns; }

  SplitAccess& input() { return *input_; }
  uint64_t split_id() const { return input_->split_id(); }
  const JobConfig& config() const { return env_->config; }
  const DistributedCache& cache() const { return env_->cache; }
  Counters& counters() { return *counters_; }
  const CostModel& cost_model() const { return env_->cost_model; }

  /// Persistent state for this split across rounds (the paper's per-split
  /// HDFS state file written from Close). Charged as local disk IO.
  void SaveState(const std::string& blob) {
    cost_->disk_bytes += blob.size();
    WAVEMR_CHECK(env_->state.Put(StateKey(), blob).ok());
  }
  StatusOr<std::string> LoadState() {
    auto blob = env_->state.Get(StateKey());
    if (blob.ok()) cost_->disk_bytes += blob->size();
    return blob;
  }
  bool HasState() const { return env_->state.Contains(StateKey()); }

  /// Folds the locally counted emits into the task Counters; called once by
  /// the engine after Mapper::Run returns.
  void FlushEmitCount() {
    if (emitted_pairs_ > 0) counters_->Add("map_output_pairs", emitted_pairs_);
    emitted_pairs_ = 0;
  }

 private:
  std::string StateKey() const {
    return "split-" + std::to_string(input_->split_id());
  }

  SplitAccess* input_;
  MrEnv* env_;
  TaskCost* cost_;
  Counters* counters_;
  Sink* sink_;
  double emit_cpu_ns_;
  uint64_t emitted_pairs_ = 0;
};

/// A map task. One instance is created per split per round; Run() owns the
/// whole task lifecycle (the paper's Map-per-record plus Close pattern).
/// Instances run concurrently under --threads > 1, so a Mapper must not
/// mutate state shared across splits (the MapContext channels are safe).
///
/// The engine instantiates one of two statically-typed contexts per task --
/// buffered emit or in-task combine -- so Run is overloaded per sink type.
/// Derive from MapperBase and implement a single `template <typename Ctx>
/// void RunImpl(Ctx&)`; the base forwards both overloads.
template <typename K2, typename V2>
class Mapper {
 public:
  using BufferContext = MapContext<K2, V2, internal::BufferSink<K2, V2>>;
  using CombineContext = MapContext<K2, V2, internal::CombineSink<K2, V2>>;

  virtual ~Mapper() = default;
  virtual void Run(BufferContext& ctx) = 0;
  virtual void Run(CombineContext& ctx) = 0;
};

/// CRTP adapter: routes both statically-typed Run overloads into the derived
/// class's single RunImpl template, so mapper code is written once and the
/// emit path still inlines for either sink.
template <typename Derived, typename K2, typename V2>
class MapperBase : public Mapper<K2, V2> {
 public:
  void Run(typename Mapper<K2, V2>::BufferContext& ctx) override {
    static_cast<Derived*>(this)->RunImpl(ctx);
  }
  void Run(typename Mapper<K2, V2>::CombineContext& ctx) override {
    static_cast<Derived*>(this)->RunImpl(ctx);
  }
};

/// Context handed to the (single) Reducer.
template <typename K2, typename V2>
class ReduceContext {
 public:
  ReduceContext(MrEnv* env, TaskCost* cost) : env_(env), cost_(cost) {}

  void ChargeCpuNs(double ns) { cost_->cpu_ns += ns; }
  const JobConfig& config() const { return env_->config; }
  Counters& counters() { return env_->stats.counters; }
  const CostModel& cost_model() const { return env_->cost_model; }

  /// The reducer may publish a blob for the *next* round's mappers (the
  /// paper writes the candidate set R to HDFS; the master moves it into the
  /// Distributed Cache). Broadcast bytes are charged when that round runs.
  void PublishToCache(const std::string& name, std::string blob) {
    env_->cache.Put(name, std::move(blob));
  }

  /// Coordinator state persisted on the reducer's machine across rounds.
  void SaveState(const std::string& blob) {
    cost_->disk_bytes += blob.size();
    WAVEMR_CHECK(env_->state.Put("coordinator", blob).ok());
  }
  StatusOr<std::string> LoadState() {
    auto blob = env_->state.Get("coordinator");
    if (blob.ok()) cost_->disk_bytes += blob->size();
    return blob;
  }

 private:
  MrEnv* env_;
  TaskCost* cost_;
};

/// The single reduce task, in streaming form: Start, one Absorb per
/// intermediate pair, Finish. With JobPlan::sorted_shuffle the engine
/// delivers pairs grouped and sorted by key (Hadoop's semantics); otherwise
/// pairs stream in split-index order. Start runs exactly once, before any
/// map task, in both modes -- it may read prior-round state but never this
/// round's map output. The reducer always runs on the driver thread, so it
/// needs no synchronization of its own.
template <typename K2, typename V2>
class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual void Start(ReduceContext<K2, V2>& ctx) { (void)ctx; }
  virtual void Absorb(const K2& key, const V2& value, ReduceContext<K2, V2>& ctx) = 0;
  virtual void Finish(ReduceContext<K2, V2>& ctx) = 0;
};

/// Declarative description of one MapReduce round.
template <typename K2, typename V2>
struct JobPlan {
  std::string name = "round";

  /// Creates the map task for a split. Required. Called on the driver
  /// thread; the returned Mapper runs on a worker thread.
  std::function<std::unique_ptr<Mapper<K2, V2>>(uint64_t split)> mapper_factory;

  /// The single reducer (the paper's coordinator). Owned by the caller so
  /// the algorithm can read results out of it after the round. Required.
  Reducer<K2, V2>* reducer = nullptr;

  /// Wire size of one whole run of shuffled pairs, called once per map
  /// task's post-combine output with the packed key/value columns; defaults
  /// to n * (sizeof(K2) + sizeof(V2)). The paper's accounting (4-byte keys,
  /// 4-byte local counts, 8-byte coefficients) plugs in here as a bulk
  /// formula -- or a loop over the columns when per-pair sizes vary.
  std::function<uint64_t(const K2* keys, const V2* values, size_t n)> wire_bytes;

  /// Optional combine function: merges values with equal keys inside each
  /// map task before the shuffle (Hadoop's Combiner). Shuffle bytes are
  /// counted after combining.
  std::function<V2(const V2&, const V2&)> combiner;

  /// Deliver pairs to the reducer grouped and sorted by key (Hadoop's
  /// reducer contract): each map task sorts its own run on its worker
  /// thread and the driver merges the runs with a loser tree.
  bool sorted_shuffle = false;
};

/// Executes one round over all splits of `dataset` and appends a RoundStats
/// to env->stats. Mapper/reducer code runs for real; seconds are simulated
/// per the CostModel.
///
/// Parallel execution: with env->threads != 1 map tasks run on a ThreadPool
/// (env->threads == 0 means hardware concurrency). Each task emits into a
/// private columnar ShuffleRun (sorted on the worker under sorted_shuffle);
/// the driver hands runs to the ShufflePlane in split-index order, so
/// shuffle accounting, counters, and reducer results are bit-identical for
/// every thread count. Sorted rounds additionally plan env->reduce_tasks
/// equi-depth global-rank ranges (0 = one per map thread), merge the stream
/// in rank slices on the same pool, and spill retained runs past
/// CostModel::shuffle_buffer_bytes to env->spill_dir -- neither changes any
/// result bit (see internal::DeliverSortedMerge and ShufflePlane).
template <typename K2, typename V2>
RoundStats RunRound(const JobPlan<K2, V2>& plan, const Dataset& dataset, MrEnv* env) {
  WAVEMR_CHECK(plan.mapper_factory != nullptr);
  WAVEMR_CHECK(plan.reducer != nullptr);

  const uint64_t num_splits = dataset.info().num_splits;

  RoundStats round;
  round.name = plan.name;
  round.overhead_s = env->cost_model.job_overhead_s;
  round.map_tasks = num_splits;

  // Master -> slaves broadcast. Only *data-dependent* broadcast counts as
  // communication: distributed-cache blobs, replicated to every slave, are
  // charged once, in the first round after they are added. The Job
  // Configuration ships with every Hadoop job regardless of algorithm (the
  // paper does not count it either); its transfer time is part of the
  // per-round job overhead.
  uint64_t slaves = env->cluster.NumSlaves();
  round.broadcast_bytes = env->cache.TakeNewBytes() * slaves;

  typename ShufflePlane<K2, V2>::WireFn wire = plan.wire_bytes;
  if (!wire) {
    wire = [](const K2*, const V2*, size_t n) -> uint64_t {
      return n * (sizeof(K2) + sizeof(V2));
    };
  }

  TaskCost reduce_cost;
  ReduceContext<K2, V2> reduce_ctx(env, &reduce_cost);

  // The plane owns run collection, wire accounting, spilling, and delivery:
  // streaming planes absorb each run the moment the driver merges it (and
  // free it); sorted planes retain the worker-sorted runs -- evicting the
  // largest ones to env->spill_dir when they outgrow the buffer budget --
  // for the loser-tree merge.
  ShufflePlane<K2, V2> plane(wire, plan.sorted_shuffle,
                             SpillPolicy{env->ResolvedShuffleBufferBytes()},
                             &env->spill_dir, env->EnsureIoBackend());
  auto absorb = [&](const K2& k, const V2& v) {
    plan.reducer->Absorb(k, v, reduce_ctx);
  };

  // The reducer starts exactly once, before any map task runs, in both
  // delivery modes: Start may only depend on prior-round state, never on
  // this round's map output, so giving it one fixed lifecycle point keeps
  // reducers that allocate or load state in Start single-shot.
  plan.reducer->Start(reduce_ctx);

  using TaskOutput = internal::MapTaskOutput<K2, V2>;

  // Runs one map task end to end; called on a worker thread (or inline when
  // serial). Touches only the task's own output, the immutable dataset, and
  // the thread-safe MrEnv channels (config/cache/state). Under a sorted
  // shuffle the run sort happens here too -- on the already-parallel map
  // side, off the serial driver path.
  auto run_map_task = [&plan, &dataset, env](uint64_t split) {
    TaskOutput out;
    SplitAccess access(dataset, split, env->cost_model, &out.cost);
    std::unique_ptr<Mapper<K2, V2>> mapper = plan.mapper_factory(split);
    if (plan.combiner) {
      // Combine inside the task: aggregate emissions by key, flush at Close.
      internal::CombineSink<K2, V2> sink(&plan.combiner);
      typename Mapper<K2, V2>::CombineContext ctx(&access, env, &out.cost,
                                                  &out.counters, &sink);
      mapper->Run(ctx);
      ctx.FlushEmitCount();
      out.combined = true;
      out.combine_output_pairs = sink.buffer().size();
      out.run.Reserve(sink.buffer().size());
      for (const auto& [k, v] : sink.buffer()) out.run.Append(k, v);
    } else {
      internal::BufferSink<K2, V2> sink(&out.run);
      typename Mapper<K2, V2>::BufferContext ctx(&access, env, &out.cost,
                                                 &out.counters, &sink);
      mapper->Run(ctx);
      ctx.FlushEmitCount();
    }
    if (plan.sorted_shuffle) out.run.SortByKey();
    return out;
  };

  const int requested = env->threads;
  const int pool_threads = requested == 0 ? ThreadPool::DefaultThreadCount() : requested;
  const bool parallel = pool_threads > 1 && num_splits > 1;
  round.threads_used = parallel ? pool_threads : 1;
  // Recorded like Hadoop's mapreduce.job.* keys so tasks and post-run
  // inspection can see the round's parallelism. Written before any task
  // launches; the config is immutable while mappers run.
  env->config.SetUint("wavemr.threads", static_cast<uint64_t>(round.threads_used));

  const auto map_start = std::chrono::steady_clock::now();

  std::vector<std::future<TaskOutput>> pending;
  if (parallel) {
    ThreadPool* pool = env->EnsurePool(pool_threads);
    pending.reserve(num_splits);
    for (uint64_t split = 0; split < num_splits; ++split) {
      pending.push_back(pool->Submit([&run_map_task, split] {
        return run_map_task(split);
      }));
    }
  }

  // Deterministic merge: absorb each task's buffered output in split-index
  // order (mapper exceptions resurface here, also in split order).
  std::vector<double> task_seconds;
  task_seconds.reserve(num_splits);
  for (uint64_t split = 0; split < num_splits; ++split) {
    TaskOutput out;
    if (parallel) {
      try {
        out = pending[split].get();
      } catch (...) {
        // Queued/running tasks reference this frame's run_map_task; they
        // must all finish before the frame unwinds.
        for (uint64_t rest = split + 1; rest < num_splits; ++rest) {
          pending[rest].wait();
        }
        throw;
      }
    } else {
      out = run_map_task(split);
    }
    env->stats.counters.MergeFrom(out.counters);
    if (out.combined) {
      env->stats.counters.Add("combine_output_pairs", out.combine_output_pairs);
    }
    reduce_cost.cpu_ns += static_cast<double>(out.run.size()) *
                          env->cost_model.reduce_cpu_ns_per_pair;
    plane.Accept(std::move(out.run), absorb);

    task_seconds.push_back(env->cost_model.task_overhead_s +
                           env->cost_model.time_scale *
                               (env->cost_model.DiskSeconds(out.cost.disk_bytes) +
                                out.cost.cpu_ns * 1e-9));
    env->stats.counters.Add("map_records_read", out.cost.records_read);
  }

  round.map_wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                map_start)
          .count();

  if (plan.sorted_shuffle) {
    const int reduce_tasks =
        env->reduce_tasks > 0 ? env->reduce_tasks : round.threads_used;
    const auto reduce_start = std::chrono::steady_clock::now();
    const internal::SortedMergeResult merged = internal::DeliverSortedMerge(
        plane, env, reduce_tasks, pool_threads, absorb);
    round.reduce_tasks_used = merged.reduce_tasks_used;
    round.reduce_range_max_pairs = merged.range_max_pairs;
    round.reduce_range_min_pairs = merged.range_min_pairs;
    round.reduce_wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - reduce_start)
                               .count();
    // Like "wavemr.threads": record what actually ran (partitioning can
    // fall back to a single merge, e.g. on an empty shuffle).
    env->config.SetUint("wavemr.reduce_tasks",
                        static_cast<uint64_t>(round.reduce_tasks_used));
  }
  plan.reducer->Finish(reduce_ctx);

  round.shuffle_pairs = plane.pairs();
  round.shuffle_bytes = plane.wire_bytes();
  round.spill_files = plane.spill_files();
  round.spill_bytes = plane.spill_bytes();
  // Every spilled payload byte is read back exactly once by the merge,
  // independent of partition count or cursor block size -- charge the
  // deterministic quantity, not the block-rounded fread total.
  round.spill_read_bytes = plane.spill_payload_bytes();
  round.spill_s = env->cost_model.time_scale *
                  env->cost_model.SpillDiskSeconds(round.spill_bytes +
                                                   round.spill_read_bytes);
  if (plane.spill_events() > 0) {
    env->stats.counters.Add("shuffle_spill_events", plane.spill_events());
  }
  if (plane.spill_files() > 0) {
    env->stats.counters.Add("shuffle_spill_files", plane.spill_files());
    env->stats.counters.Add("shuffle_spill_bytes", plane.spill_bytes());
  }
  round.spill_fallbacks = plane.spill_fallbacks();
  round.spill_retries = plane.spill_retries();
  if (plane.spill_fallbacks() > 0) {
    env->stats.counters.Add("shuffle_spill_fallbacks", plane.spill_fallbacks());
  }
  if (plane.spill_retries() > 0) {
    env->stats.counters.Add("shuffle_spill_retries", plane.spill_retries());
  }

  round.map_makespan_s = ScheduleMakespan(env->cluster, task_seconds);
  round.shuffle_s =
      env->cost_model.time_scale *
      env->cost_model.NetworkSeconds(round.shuffle_bytes + round.broadcast_bytes);
  round.reduce_s = env->cost_model.time_scale *
                   (env->cost_model.DiskSeconds(reduce_cost.disk_bytes) +
                    reduce_cost.cpu_ns * 1e-9) /
                   env->cluster.ReducerSpeed();

  env->stats.counters.Add("shuffle_pairs", round.shuffle_pairs);
  env->stats.AddRound(round);
  return round;
}

}  // namespace wavemr

#endif  // WAVEMR_MAPREDUCE_JOB_H_
