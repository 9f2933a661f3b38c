#ifndef WAVEMR_MAPREDUCE_SHUFFLE_H_
#define WAVEMR_MAPREDUCE_SHUFFLE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/io.h"
#include "core/logging.h"
#include "core/radix_sort.h"
#include "mapreduce/spill.h"

namespace wavemr {

/// Columnar shuffle data plane.
///
/// The paper's algorithms are shuffle-bound by design (Send-V ships one
/// (key, count) pair per distinct key per split; H-WTopk's three rounds
/// hinge on shuffle volume), so the engine's intermediate representation is
/// laid out for the merge loop, not for convenience: each map task emits
/// into a ShuffleRun of packed parallel keys[] / values[] arrays, sorts its
/// own run on the worker thread when the round wants Hadoop's sorted
/// delivery, and the driver merges the per-task runs with a loser tree --
/// the structure Hadoop's framework uses over map-output spill files. When
/// the retained runs outgrow the SpillPolicy budget the plane writes whole
/// runs to temp spill files (mapreduce/spill.h) and the same loser tree
/// merges file-backed and resident runs, so a shuffle larger than RAM
/// produces bit-identical output to the all-in-memory path.

// ---------------------------------------------------------------------------
// ShuffleRun: one map task's packed intermediate output.
// ---------------------------------------------------------------------------

/// Packed columnar run of intermediate (key, value) pairs, in emit order.
/// keys[i] and values[i] form pair i; the arrays always have equal length.
/// Every shuffle key is a uint64_t; `K` only spells it.
template <typename K, typename V>
struct ShuffleRun {
  static_assert(std::is_same_v<K, uint64_t>, "shuffle keys are uint64_t");

  std::vector<K> keys;
  std::vector<V> values;
  /// Set by SortByKey; a sorted plane only merges sorted runs.
  bool sorted = false;

  size_t size() const { return keys.size(); }
  bool empty() const { return keys.empty(); }

  void Reserve(size_t n) {
    keys.reserve(n);
    values.reserve(n);
  }

  void Append(const K& key, const V& value) {
    keys.push_back(key);
    values.push_back(value);
    sorted = false;  // appending past a sort invalidates it
  }

  /// Payload bytes this run holds in memory (what a spill would write).
  uint64_t PayloadBytes() const {
    return static_cast<uint64_t>(size()) * (sizeof(K) + sizeof(V));
  }

  /// Stable sort by key: the resulting permutation is exactly what
  /// std::stable_sort over the equivalent pair vector would produce, so a
  /// tie-broken merge of sorted runs reproduces the old engine's global
  /// stable_sort bit for bit. An LSD radix sort (core/radix_sort.h) -- O(n)
  /// passes over contiguous columns instead of a comparison sort over
  /// strided pairs.
  void SortByKey() {
    if (sorted) return;
    RadixSortByKey(keys, &values);
    sorted = true;
  }
};

// ---------------------------------------------------------------------------
// RunMerger: loser-tree k-way merge over sorted runs.
// ---------------------------------------------------------------------------

/// One input to the merge: either a resident slice of a sorted columnar run
/// (keys/values/n) or a file-backed cursor over a spilled run. `ordinal` is
/// the run's arrival index at the plane -- the merge tie-break -- so a run
/// merges identically whether it stayed resident or went to disk.
template <typename K, typename V>
struct MergeInput {
  const K* keys = nullptr;
  const V* values = nullptr;
  size_t n = 0;
  FileRunCursor<K, V>* file = nullptr;  // non-null: stream blocks from disk
  uint32_t ordinal = 0;
};

/// Merges R stably-sorted columnar runs (resident or file-backed) in
/// (key, ordinal) order: equal keys drain lower-ordinal runs first, and each
/// run preserves its internal order, so the merged stream equals
/// std::stable_sort over the runs' concatenation in ordinal order.
///
/// Delivery is adaptively block-wise: the default loop replays once per
/// equal-key group, but when the same run keeps winning (kGallopStreak
/// consecutive replays -- a skewed or key-clustered run) it computes the
/// runner-up bound (the best head among the leaves the winner defeated on
/// its root path) and bulk-drains the winner's whole remaining prefix up to
/// that bound with a galloping search over its key column -- one tree walk
/// per *prefix* instead of one per pair. Galloping keeps the search cost
/// O(log prefix), so uniform workloads never pay for the block path while
/// run-partitioned key ranges collapse to a streak of bulk copies.
/// DrainPerPair keeps the classic loop as the reference (and the bench
/// floor) for the block-wise path.
template <typename K, typename V>
class RunMerger {
 public:
  explicit RunMerger(const std::vector<ShuffleRun<K, V>>& runs) {
    std::vector<MergeInput<K, V>> inputs;
    inputs.reserve(runs.size());
    for (uint32_t r = 0; r < runs.size(); ++r) {
      WAVEMR_DCHECK(runs[r].sorted || runs[r].size() < 2);
      inputs.push_back(MergeInput<K, V>{runs[r].keys.data(), runs[r].values.data(),
                                        runs[r].size(), nullptr, r});
    }
    Init(inputs);
  }

  explicit RunMerger(const std::vector<MergeInput<K, V>>& inputs) { Init(inputs); }

  /// Consecutive wins by one run before Drain switches from per-group
  /// replay to the galloped block drain for that run.
  static constexpr uint32_t kGallopStreak = 4;

  /// Pops every pair into `consume(key, value)` in merged order (adaptive
  /// block-wise delivery; identical stream to DrainPerPair).
  template <typename Consumer>
  void Drain(Consumer&& consume) {
    const uint32_t leaves = static_cast<uint32_t>(cursors_.size());
    if (leaves == 0) return;
    if (leaves == 1) {
      DrainAll(cursors_[0], consume);
      return;
    }
    uint32_t prev = leaves;  // not a valid leaf
    uint32_t streak = 0;
    while (!Exhausted(winner_)) {
      Cursor& c = cursors_[winner_];
      if (winner_ == prev) {
        ++streak;
      } else {
        prev = winner_;
        streak = 0;
      }
      if (streak >= kGallopStreak) {
        streak = 0;
        const uint32_t ru = RunnerUp(winner_);
        if (Exhausted(ru)) {
          // No live contender: the winner owns the rest of the stream.
          DrainAll(c, consume);
        } else {
          // Every other live head is >= the runner-up's head under (key,
          // ordinal) order, so the winner keeps winning for its whole prefix
          // of keys < bound -- or <= bound when it also wins the tie-break.
          const K bound = *cursors_[ru].key;
          const bool wins_ties = c.run < cursors_[ru].run;
          for (;;) {
            const K* stop = GallopStop(c.key, c.end, bound, wins_ties);
            const size_t take = static_cast<size_t>(stop - c.key);
            for (size_t i = 0; i < take; ++i) consume(c.key[i], c.value[i]);
            c.key += take;
            c.value += take;
            if (c.key != c.end) break;                       // ends in block
            if (c.file == nullptr || !RefillFile(c)) break;  // run exhausted
            // Refilled from disk: the prefix may continue into this block.
            if (wins_ties ? (bound < *c.key) : !(*c.key < bound)) break;
          }
        }
      } else {
        const K current = *c.key;
        do {
          consume(*c.key, *c.value);
          AdvanceOne(c);
        } while (c.key != c.end && *c.key == current);
      }
      Replay(winner_);
    }
  }

  /// Reference delivery: one loser-tree replay per equal-key group, pairs
  /// consumed one at a time. Same output stream as Drain.
  template <typename Consumer>
  void DrainPerPair(Consumer&& consume) {
    const uint32_t leaves = static_cast<uint32_t>(cursors_.size());
    if (leaves == 0) return;
    if (leaves == 1) {
      DrainAll(cursors_[0], consume);
      return;
    }
    while (!Exhausted(winner_)) {
      Cursor& c = cursors_[winner_];
      // Drain the winner's whole prefix of equal keys before replaying the
      // tree: every other live run's head is either > this key or == with a
      // higher ordinal (a lower one would have won instead).
      const K current = *c.key;
      do {
        consume(*c.key, *c.value);
        AdvanceOne(c);
      } while (c.key != c.end && *c.key == current);
      Replay(winner_);
    }
  }

 private:
  struct Cursor {
    const K* key;
    const K* end;
    const V* value;
    uint32_t run;                  // merge ordinal; the tie-break
    FileRunCursor<K, V>* file;     // non-null: refill from disk at block end
  };

  void Init(const std::vector<MergeInput<K, V>>& inputs) {
    cursors_.reserve(inputs.size());
    for (const MergeInput<K, V>& in : inputs) {
      if (in.file != nullptr) {
        Cursor c{nullptr, nullptr, nullptr, in.ordinal, in.file};
        if (!RefillFile(c)) continue;  // empty range
        cursors_.push_back(c);
      } else {
        if (in.n == 0) continue;
        cursors_.push_back(Cursor{in.keys, in.keys + in.n, in.values, in.ordinal,
                                  nullptr});
      }
    }
    BuildTree();
  }

  bool Exhausted(uint32_t leaf) const {
    return cursors_[leaf].key == cursors_[leaf].end;
  }

  /// Loads the cursor's next disk block; false at end of the file range.
  /// Invariant everywhere else: a cursor with key == end is truly exhausted.
  static bool RefillFile(Cursor& c) {
    const K* keys = nullptr;
    const V* values = nullptr;
    const uint64_t got = c.file->NextBlock(&keys, &values);
    if (got == 0) {
      c.key = c.end = nullptr;
      c.value = nullptr;
      return false;
    }
    c.key = keys;
    c.end = keys + got;
    c.value = values;
    return true;
  }

  /// Advances one pair, refilling across disk-block boundaries.
  static void AdvanceOne(Cursor& c) {
    ++c.key;
    ++c.value;
    if (c.key == c.end && c.file != nullptr) RefillFile(c);
  }

  /// First element of [begin, end) past the winning prefix: keys < bound
  /// (exclusive) or <= bound (inclusive). begin is known to qualify.
  /// Galloping (exponential probe, then bounded binary search) keeps the
  /// cost O(log prefix) instead of O(log block), so short prefixes stay
  /// cheap and long ones amortize to a bulk copy.
  static const K* GallopStop(const K* begin, const K* end, const K& bound,
                             bool inclusive) {
    const size_t n = static_cast<size_t>(end - begin);
    size_t off = 1;
    if (inclusive) {
      while (off < n && !(bound < begin[off])) off <<= 1;
    } else {
      while (off < n && begin[off] < bound) off <<= 1;
    }
    const K* lo = begin + (off >> 1);
    const K* hi = begin + (off < n ? off : n);
    return inclusive ? std::upper_bound(lo, hi, bound)
                     : std::lower_bound(lo, hi, bound);
  }

  /// Consumes everything the cursor has left.
  template <typename Consumer>
  static void DrainAll(Cursor& c, Consumer&& consume) {
    for (;;) {
      const size_t n = static_cast<size_t>(c.end - c.key);
      for (size_t i = 0; i < n; ++i) consume(c.key[i], c.value[i]);
      c.key = c.end;
      if (c.file == nullptr || !RefillFile(c)) return;
    }
  }

  /// True when leaf `a` wins the match against leaf `b`: smaller head key,
  /// ties to the lower ordinal; exhausted leaves always lose.
  bool Beats(uint32_t a, uint32_t b) const {
    const bool ae = Exhausted(a);
    const bool be = Exhausted(b);
    if (ae || be) return !ae;
    const K& ka = *cursors_[a].key;
    const K& kb = *cursors_[b].key;
    if (ka != kb) return ka < kb;
    return cursors_[a].run < cursors_[b].run;
  }

  /// Best head among the leaves the winner defeated: they sit exactly on
  /// its root path, and every other live leaf lost (transitively) to one of
  /// them, so the returned leaf's head lower-bounds all non-winner heads.
  uint32_t RunnerUp(uint32_t leaf) const {
    const uint32_t leaves = static_cast<uint32_t>(cursors_.size());
    uint32_t best = loser_[(leaf + leaves) >> 1];
    for (uint32_t t = (leaf + leaves) >> 2; t >= 1; t >>= 1) {
      if (Beats(loser_[t], best)) best = loser_[t];
    }
    return best;
  }

  /// Bottom-up build: compute subtree winners, store the loser of each
  /// internal match. Leaves 0..R-1 are tree positions R..2R-1; node t's
  /// parent is t/2.
  void BuildTree() {
    const uint32_t leaves = static_cast<uint32_t>(cursors_.size());
    if (leaves < 2) return;
    loser_.assign(leaves, 0);
    std::vector<uint32_t> winner(2 * leaves);
    for (uint32_t r = 0; r < leaves; ++r) winner[leaves + r] = r;
    for (uint32_t t = leaves - 1; t >= 1; --t) {
      const uint32_t a = winner[2 * t];
      const uint32_t b = winner[2 * t + 1];
      winner[t] = Beats(a, b) ? a : b;
      loser_[t] = Beats(a, b) ? b : a;
    }
    winner_ = winner[1];
  }

  /// After the winning leaf advanced, replay its root path: every contender
  /// it previously beat sits exactly on that path.
  void Replay(uint32_t leaf) {
    const uint32_t leaves = static_cast<uint32_t>(cursors_.size());
    uint32_t w = leaf;
    for (uint32_t t = (leaf + leaves) >> 1; t >= 1; t >>= 1) {
      if (Beats(loser_[t], w)) std::swap(w, loser_[t]);
    }
    winner_ = w;
  }

  std::vector<Cursor> cursors_;
  std::vector<uint32_t> loser_;  // loser_[t]: losing leaf of internal node t
  uint32_t winner_ = 0;
};

// ---------------------------------------------------------------------------
// SpillPolicy: byte budget for retained runs.
// ---------------------------------------------------------------------------

/// Byte budget for the runs a sorted shuffle retains in memory before the
/// plane spills them to disk (Hadoop's io.sort.mb analog, sized from
/// IoOptions::shuffle_buffer_bytes). Crossing the budget both counts a spill
/// event and -- when the plane has a SpillDir -- serializes the largest
/// retained runs until the resident footprint fits again.
struct SpillPolicy {
  /// 0 = unbounded (never spill).
  uint64_t buffer_bytes = 0;

  bool ShouldSpill(uint64_t resident_bytes) const {
    return buffer_bytes > 0 && resident_bytes > buffer_bytes;
  }
};

// ---------------------------------------------------------------------------
// MergeCut: a position in the merged stream addressed by content.
// ---------------------------------------------------------------------------

/// A cut point in a sorted plane's merged output, addressed by content
/// rather than by index: every pair before the cut either has key < `key`,
/// or has key == `key` and comes from a run with ordinal < `ordinal`, or is
/// one of the first `offset` key-equal pairs of run `ordinal`. Because the
/// loser-tree merge delivers equal keys as whole runs in ordinal order
/// (with within-run order preserved), each global rank r in [0, n] maps to
/// exactly one cut -- so cuts can slice the merged stream at arbitrary pair
/// counts. That is what lets equi-depth reduce partitions split a hot key's
/// duplicates across ranges, where a key-range boundary cannot.
template <typename K>
struct MergeCut {
  K key{};
  uint32_t ordinal = 0;  // run owning the pair at the cut
  uint64_t offset = 0;   // pairs of that run's key-equal group before the cut

  friend bool operator==(const MergeCut& a, const MergeCut& b) {
    return a.key == b.key && a.ordinal == b.ordinal && a.offset == b.offset;
  }
};

// ---------------------------------------------------------------------------
// ShufflePlane: run collection, wire accounting, spill, delivery.
// ---------------------------------------------------------------------------

/// Owns one round's shuffle: accepts each map task's run in split-index
/// order, accounts its wire bytes in bulk (one callback per run, not one
/// per pair), spills the largest retained runs to disk when they outgrow
/// the SpillPolicy budget, and delivers pairs to the reducer either
/// streaming (unsorted planes absorb a run the moment it arrives and free
/// it) or via the loser-tree merge over all retained + spilled runs
/// (sorted planes). The plane deletes its spill files in its destructor, so
/// a reducer exception unwinding RunRound leaves no files behind.
///
/// Spill writes run on the driver inside Accept, at the moment the budget
/// is crossed, so by the time any merge, rank probe or counter reads the
/// plane every spill decision has landed. A write that fails after its
/// retries pins the run resident (graceful degradation, bit-identical
/// output). File cursors read their blocks on whichever thread merges.
template <typename K, typename V>
class ShufflePlane {
  static_assert(std::is_same_v<K, uint64_t>, "shuffle keys are uint64_t");

 public:
  /// Wire bytes of a whole run: called once per run with the packed columns.
  using WireFn = std::function<uint64_t(const K* keys, const V* values, size_t n)>;

  /// Without a SpillDir the plane only counts would-spill events (the
  /// pre-external behavior unit tests pin); with one it spills for real.
  /// `retry` governs every spill write and file-cursor read.
  ShufflePlane(WireFn wire, bool sorted, SpillPolicy spill,
               SpillDir* spill_dir = nullptr,
               IoRetryPolicy retry = IoRetryPolicy())
      : wire_(std::move(wire)), sorted_(sorted), spill_(spill),
        spill_dir_(spill_dir), retry_(retry) {}

  ~ShufflePlane() { DeleteSpillFiles(); }

  ShufflePlane(const ShufflePlane&) = delete;
  ShufflePlane& operator=(const ShufflePlane&) = delete;

  /// Accounts `run` and either streams it into `absorb(key, value)` now
  /// (unsorted plane) or retains it for Merge. Call in split-index order;
  /// delivery and accounting order is what makes rounds thread-independent.
  template <typename Absorb>
  void Accept(ShuffleRun<K, V>&& run, Absorb&& absorb) {
    const size_t n = run.size();
    pairs_ += n;
    wire_bytes_ += wire_(run.keys.data(), run.values.data(), n);
    if (!sorted_) {
      const K* k = run.keys.data();
      const V* v = run.values.data();
      for (size_t i = 0; i < n; ++i) absorb(k[i], v[i]);
      return;  // streaming: the run dies here, nothing is retained
    }
    WAVEMR_DCHECK(run.sorted || n < 2) << "sorted plane fed an unsorted run";
    resident_bytes_ += run.PayloadBytes();
    resident_.push_back(Retained{next_ordinal_++, std::move(run)});
    if (spill_.ShouldSpill(resident_bytes_)) {
      ++spill_events_;
      SpillUntilWithinBudget();
    }
  }

  /// Sorted plane: loser-tree merge of every retained + spilled run into
  /// `absorb(key, value)`, grouped and sorted by key. The zero cut starts
  /// every run at index 0 (resolved without IO on spilled runs).
  template <typename Absorb>
  void Merge(Absorb&& absorb) const {
    MergeCutRange(MergeCut<K>{}, /*has_hi=*/false, MergeCut<K>{},
                  std::forward<Absorb>(absorb));
  }

  /// Pairs whose key is < `key` (inclusive=false) or <= `key` (true),
  /// summed across every retained and spilled run. One in-memory
  /// binary search per resident run, one on-disk probe sequence per
  /// spilled run.
  uint64_t RankOfKey(const K& key, bool inclusive) const {
    std::vector<SpillKeyProbe<K>> probes = MakeSpillProbes();
    return RankOfKeyWith(probes, key, inclusive);
  }

  /// The cut exactly `rank` pairs into the merged stream, 0 <= rank <
  /// pairs(). Binary-searches the key domain for the key owning that rank
  /// (O(log key-span) RankOfKey probes), then walks that key's per-run
  /// group sizes in ordinal order to place the cut inside the key's
  /// duplicates. The end-of-stream position has no cut; callers express it
  /// as an unbounded upper end (has_hi == false). Sorted planes only.
  MergeCut<K> CutForRank(uint64_t rank) const {
    WAVEMR_CHECK(rank < pairs_) << "cut rank past the merged stream";
    K lo{};
    K hi{};
    WAVEMR_CHECK(KeyBounds(&lo, &hi)) << "cut requested on an empty plane";
    // One probe set for the whole search: each spilled run's handle stays
    // open and its last-read key block stays cached across every step.
    std::vector<SpillKeyProbe<K>> probes = MakeSpillProbes();
    // Smallest key with more than `rank` pairs at or below it: the key of
    // the pair at global position `rank`.
    while (lo < hi) {
      const K mid = lo + (hi - lo) / 2;
      if (RankExceeds(probes, mid, rank)) {
        hi = mid;
      } else {
        lo = static_cast<K>(mid + 1);
      }
    }
    MergeCut<K> cut;
    cut.key = lo;
    // Distribute the remaining offset across the key's duplicates, walking
    // runs in ordinal order -- the order the merge drains equal keys in.
    uint64_t remaining = rank - RankOfKeyWith(probes, lo, /*inclusive=*/false);
    std::vector<std::pair<uint32_t, uint64_t>> groups;  // (ordinal, group size)
    for (const Retained& r : resident_) {
      const K* begin = r.run.keys.data();
      const K* end = begin + r.run.size();
      const uint64_t g = static_cast<uint64_t>(
          std::upper_bound(begin, end, lo) - std::lower_bound(begin, end, lo));
      if (g > 0) groups.emplace_back(r.ordinal, g);
    }
    for (size_t i = 0; i < spilled_.size(); ++i) {
      const uint64_t g = probes[i].UpperBound(lo) - probes[i].LowerBound(lo);
      if (g > 0) groups.emplace_back(spilled_[i].ordinal, g);
    }
    std::sort(groups.begin(), groups.end());
    for (const auto& [ordinal, g] : groups) {
      if (remaining < g) {
        cut.ordinal = ordinal;
        cut.offset = remaining;
        return cut;
      }
      remaining -= g;
    }
    WAVEMR_CHECK(false) << "rank walk overran its key group";
    return cut;
  }

  /// Merges only the pairs between cut `lo` and cut `hi` -- or from `lo` to
  /// the end when has_hi is false -- preserving the exact order the full
  /// Merge delivers them in. Disjoint adjacent cut ranges concatenate to
  /// the single-merge stream, including through the middle of a run of
  /// duplicate keys (where a key boundary cannot fall). Thread-safe: each
  /// call opens its own file cursors, so disjoint ranges merge concurrently.
  template <typename Absorb>
  void MergeCutRange(const MergeCut<K>& lo, bool has_hi, const MergeCut<K>& hi,
                     Absorb&& absorb) const {
    std::vector<MergeInput<K, V>> inputs;
    std::vector<std::unique_ptr<FileRunCursor<K, V>>> cursors;
    inputs.reserve(resident_.size() + spilled_.size());
    for (const Retained& r : resident_) {
      const K* begin = r.run.keys.data();
      const uint64_t s = ResidentCutIndex(r, lo);
      const uint64_t e = has_hi ? ResidentCutIndex(r, hi) : r.run.size();
      inputs.push_back(MergeInput<K, V>{begin + s, r.run.values.data() + s,
                                        static_cast<size_t>(e - s), nullptr,
                                        r.ordinal});
    }
    for (const Spilled& s : spilled_) {
      // One probe per run resolves both endpoints: shared handle, and the
      // hi lookup usually hits the key block the lo lookup cached.
      SpillKeyProbe<K> probe(s.info);
      const uint64_t begin = SpilledCutIndex(s, lo, probe);
      const uint64_t end =
          has_hi ? SpilledCutIndex(s, hi, probe) : s.info.num_pairs;
      cursors.push_back(std::make_unique<FileRunCursor<K, V>>(
          s.info, begin, end, FileRunCursor<K, V>::kDefaultBlockPairs,
          retry_));
      inputs.push_back(
          MergeInput<K, V>{nullptr, nullptr, 0, cursors.back().get(), s.ordinal});
    }
    // Ordinal order keeps the loser tree's leaf numbering deterministic
    // (inputs arrive resident-then-spilled above, not in arrival order).
    std::sort(inputs.begin(), inputs.end(),
              [](const MergeInput<K, V>& a, const MergeInput<K, V>& b) {
                return a.ordinal < b.ordinal;
              });
    RunMerger<K, V> merger(inputs);
    merger.Drain(absorb);
  }

  /// Smallest and largest key across all retained + spilled pairs; false
  /// when the plane holds no pairs. Sorted planes only.
  bool KeyBounds(K* min_key, K* max_key) const {
    bool any = false;
    for (const Retained& r : resident_) {
      if (r.run.empty()) continue;
      const K lo = r.run.keys.front();
      const K hi = r.run.keys.back();
      if (!any || lo < *min_key) *min_key = lo;
      if (!any || *max_key < hi) *max_key = hi;
      any = true;
    }
    for (const Spilled& s : spilled_) {
      if (s.info.num_pairs == 0) continue;
      if (!any || s.info.min_key < *min_key) *min_key = s.info.min_key;
      if (!any || *max_key < s.info.max_key) *max_key = s.info.max_key;
      any = true;
    }
    return any;
  }

  uint64_t pairs() const { return pairs_; }
  uint64_t wire_bytes() const { return wire_bytes_; }
  uint64_t resident_bytes() const { return resident_bytes_; }
  uint64_t spill_events() const { return spill_events_; }
  uint64_t spill_files() const { return spill_files_; }
  /// Bytes written to spill files (framing included).
  uint64_t spill_bytes() const { return spill_bytes_; }
  /// Payload bytes living in spill files -- what every full merge reads
  /// back, independent of reduce partitioning or cursor block size.
  uint64_t spill_payload_bytes() const { return spill_payload_bytes_; }
  /// Spill attempts that exhausted their IO retries and fell back to
  /// retaining the run resident (results stay bit-identical; see Retained).
  uint64_t spill_fallbacks() const { return spill_fallbacks_; }
  /// Transient-errno retries performed by spill writes (successful or not).
  uint64_t spill_retries() const { return spill_retries_; }
  size_t num_runs() const { return resident_.size() + spilled_.size(); }

 private:
  struct Retained {
    uint32_t ordinal;
    ShuffleRun<K, V> run;
    /// A spill attempt on this run exhausted its IO retries. The run stays
    /// resident for the rest of the round and is never offered as a spill
    /// victim again -- its bytes permanently occupy budget, shrinking the
    /// effective buffer (graceful degradation instead of an aborted job).
    bool pinned = false;
  };
  struct Spilled {
    uint32_t ordinal;
    SpillFileInfo info;
  };
  /// Spills the largest resident runs (ties to the lower ordinal, so the
  /// choice is deterministic) until the footprint fits the budget again.
  /// Largest-first minimizes file count for a given number of bytes evicted
  /// -- the same policy Hadoop's merge uses to pick spill victims.
  void SpillUntilWithinBudget() {
    if (spill_dir_ == nullptr) return;  // counting-only plane
    while (spill_.ShouldSpill(resident_bytes_) && !resident_.empty()) {
      size_t victim = resident_.size();
      for (size_t i = 0; i < resident_.size(); ++i) {
        if (resident_[i].pinned || resident_[i].run.empty()) continue;
        if (victim == resident_.size() ||
            resident_[i].run.PayloadBytes() >
                resident_[victim].run.PayloadBytes()) {
          victim = i;
        }
      }
      // Everything left is empty or pinned by a failed spill: over budget
      // but nothing evictable. Carry on resident.
      if (victim == resident_.size()) break;
      SpillRun(victim);
    }
  }

  void SpillRun(size_t idx) {
    Retained& r = resident_[idx];
    SpillFileInfo info;
    info.path = spill_dir_->NextFilePath("run-" + std::to_string(r.ordinal));
    info.num_pairs = r.run.size();
    info.min_key = r.run.keys.front();
    info.max_key = r.run.keys.back();
    // Sparse key index for rank/partition probes: the run is sorted and in
    // memory right now, so sampling block-leading keys is free.
    info.block_keys.reserve(static_cast<size_t>(SpillNumBlocks(info.num_pairs)));
    for (uint64_t b = 0; b * kSpillIndexBlockPairs < info.num_pairs; ++b) {
      info.block_keys.push_back(r.run.keys[b * kSpillIndexBlockPairs]);
    }
    const SpillWriteResult w =
        WriteSpillFile<K, V>(info.path, r.run.keys.data(),
                             r.run.values.data(), r.run.size(), retry_);
    spill_retries_ += w.retries;
    if (!w.io.ok()) {
      // Degrade instead of dying: WriteSpillFile already deleted the partial
      // file, the columns are still resident, and resident vs spilled runs
      // merge bit-identically -- so pin the run in memory and move on. The
      // fallback is observable only through counters (and a shrunken
      // effective buffer).
      r.pinned = true;
      ++spill_fallbacks_;
      WAVEMR_LOG(Warning) << w.io.ToString() << "; retaining run "
                          << r.ordinal << " resident ("
                          << r.run.PayloadBytes() << " bytes pinned)";
      return;
    }
    info.file_bytes = w.file_bytes;
    ++spill_files_;
    spill_bytes_ += info.file_bytes;
    spill_payload_bytes_ += r.run.PayloadBytes();
    resident_bytes_ -= r.run.PayloadBytes();
    spilled_.push_back(Spilled{r.ordinal, std::move(info)});
    resident_.erase(resident_.begin() + static_cast<ptrdiff_t>(idx));
  }

  /// Index of cut `c` inside resident run `r`: runs with ordinal below the
  /// cut's contribute their whole key-equal group, the owning run
  /// contributes its first `offset` duplicates, later runs contribute none.
  uint64_t ResidentCutIndex(const Retained& r, const MergeCut<K>& c) const {
    const K* begin = r.run.keys.data();
    const K* end = begin + r.run.size();
    if (r.ordinal < c.ordinal) {
      return static_cast<uint64_t>(std::upper_bound(begin, end, c.key) - begin);
    }
    const uint64_t lower =
        static_cast<uint64_t>(std::lower_bound(begin, end, c.key) - begin);
    return r.ordinal == c.ordinal ? lower + c.offset : lower;
  }

  /// Same placement rule over a spilled run's on-disk key block.
  uint64_t SpilledCutIndex(const Spilled& s, const MergeCut<K>& c,
                           SpillKeyProbe<K>& probe) const {
    if (s.ordinal < c.ordinal) return probe.UpperBound(c.key);
    const uint64_t lower = probe.LowerBound(c.key);
    return s.ordinal == c.ordinal ? lower + c.offset : lower;
  }

  /// One probe per spilled run, aligned with spilled_'s order.
  std::vector<SpillKeyProbe<K>> MakeSpillProbes() const {
    std::vector<SpillKeyProbe<K>> probes;
    probes.reserve(spilled_.size());
    for (const Spilled& s : spilled_) probes.emplace_back(s.info);
    return probes;
  }

  /// RankOfKey through a caller-owned probe set (handles and block caches
  /// persist across calls).
  uint64_t RankOfKeyWith(std::vector<SpillKeyProbe<K>>& probes, const K& key,
                         bool inclusive) const {
    uint64_t rank = ResidentRankOfKey(key, inclusive);
    for (SpillKeyProbe<K>& p : probes) {
      rank += inclusive ? p.UpperBound(key) : p.LowerBound(key);
    }
    return rank;
  }

  uint64_t ResidentRankOfKey(const K& key, bool inclusive) const {
    uint64_t rank = 0;
    for (const Retained& r : resident_) {
      const K* begin = r.run.keys.data();
      const K* end = begin + r.run.size();
      rank += static_cast<uint64_t>(
          (inclusive ? std::upper_bound(begin, end, key)
                     : std::lower_bound(begin, end, key)) -
          begin);
    }
    return rank;
  }

  /// Decides RankOfKey(key, inclusive=true) > rank with as little IO as
  /// possible: resident ranks plus each spilled run's sparse-index bracket
  /// first (zero IO), exact per-run reads only while `rank` still falls
  /// inside the uncertainty interval. In the rank binary search almost
  /// every step is decided by the brackets alone.
  bool RankExceeds(std::vector<SpillKeyProbe<K>>& probes, const K& key,
                   uint64_t rank) const {
    uint64_t min_sum = ResidentRankOfKey(key, /*inclusive=*/true);
    uint64_t max_sum = min_sum;
    for (const SpillKeyProbe<K>& p : probes) {
      const auto b = p.UpperBoundBounds(key);
      min_sum += b.min;
      max_sum += b.max;
    }
    if (min_sum > rank) return true;
    if (max_sum <= rank) return false;
    for (SpillKeyProbe<K>& p : probes) {
      const auto b = p.UpperBoundBounds(key);
      if (b.min == b.max) continue;
      const uint64_t exact = p.UpperBound(key);
      min_sum += exact - b.min;
      max_sum -= b.max - exact;
      if (min_sum > rank) return true;
      if (max_sum <= rank) return false;
    }
    return min_sum > rank;
  }

  void DeleteSpillFiles() {
    for (const Spilled& s : spilled_) {
      std::error_code ec;  // best effort; SpillDir removal is the backstop
      std::filesystem::remove(s.info.path, ec);
    }
    spilled_.clear();
  }

  WireFn wire_;
  bool sorted_;
  SpillPolicy spill_;
  SpillDir* spill_dir_;
  IoRetryPolicy retry_;
  std::vector<Retained> resident_;  // sorted planes only
  std::vector<Spilled> spilled_;
  uint32_t next_ordinal_ = 0;
  uint64_t pairs_ = 0;
  uint64_t wire_bytes_ = 0;
  uint64_t resident_bytes_ = 0;
  uint64_t spill_events_ = 0;
  uint64_t spill_files_ = 0;
  uint64_t spill_bytes_ = 0;
  uint64_t spill_payload_bytes_ = 0;
  uint64_t spill_fallbacks_ = 0;
  uint64_t spill_retries_ = 0;
};

}  // namespace wavemr

#endif  // WAVEMR_MAPREDUCE_SHUFFLE_H_
