#include "exact/h_wtopk.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/radix_sort.h"
#include "core/serialize.h"
#include "mapreduce/job.h"
#include "wavelet/haar.h"
#include "wavelet/sparse.h"
#include "wavelet/topk.h"

namespace wavemr {

namespace {

// Intermediate value: (split j, w_{i,j}) with flags marking the sender's
// k-th highest / k-th lowest coefficient. The paper encodes the marks by
// offsetting j by m or 2m; the wire size is the same 4+4+8 = 16 bytes
// either way (key included). The value comes first so the struct packs into
// 16 bytes in memory: shuffle runs and the coordinator hold one per message.
struct HwMsg {
  double value = 0.0;
  uint32_t split = 0;
  uint8_t flags = 0;
};
constexpr uint8_t kMarksKthHigh = 1;
constexpr uint8_t kMarksKthLow = 2;
constexpr uint64_t kPairBytes = 16;

constexpr char kConfigT1OverM[] = "hwtopk.t1_over_m";
constexpr char kCacheCandidates[] = "hwtopk.R";

// ---------------------------------------------------------------------------
// Split state file: the not-yet-sent local coefficients, in index order,
// stored as one flat array (a uint64 count, then 16-byte (index, value)
// records).
// ---------------------------------------------------------------------------

std::string SerializeCoeffs(const std::vector<WCoeff>& coeffs) {
  Serializer s;
  s.PutVector(coeffs);
  return s.Release();
}

std::vector<WCoeff> LoadCoeffs(const StatusOr<std::string>& blob) {
  WAVEMR_CHECK(blob.ok()) << "H-WTopk mapper missing split state";
  return Deserializer(*blob).GetVector<WCoeff>();
}

// ---------------------------------------------------------------------------
// Coordinator state, persisted on the reducer machine between rounds: one row
// per coefficient index, stored as index-sorted columns. Row r's sender set
// is ceil(m/64) words; bit j says split j's exact score is in partial[r].
// ---------------------------------------------------------------------------

struct CoordState {
  uint64_t m = 0;
  double t1 = 0.0;
  std::vector<uint64_t> index;
  std::vector<double> partial;
  std::vector<uint64_t> senders;

  uint64_t words() const { return (m + 63) / 64; }
  size_t size() const { return index.size(); }
  const uint64_t* from(size_t row) const { return senders.data() + row * words(); }

  // m, t1, the row count, then the three columns:
  // 24 + n * (16 + 8 * ceil(m/64)) bytes.
  std::string Serialize() const {
    Serializer s;
    s.Put<uint64_t>(m);
    s.Put<double>(t1);
    s.PutVector(index);
    s.PutArray(partial);
    s.PutArray(senders);
    return s.Release();
  }

  static CoordState Deserialize(const std::string& blob) {
    Deserializer d(blob);
    CoordState state;
    state.m = d.Get<uint64_t>();
    state.t1 = d.Get<double>();
    state.index = d.GetVector<uint64_t>();
    state.partial = d.GetArray<double>(state.size());
    state.senders = d.GetArray<uint64_t>(state.size() * state.words());
    return state;
  }
};

// Folds one round's messages into `state`. A stable sort by index keeps each
// index's messages in arrival (split) order, so every partial sum adds its
// terms in the order the splits sent them, whatever the delivery mode. The
// index groups are then merge-joined into the state's rows. A group with no
// row opens one when `open_rows` is set and is dropped otherwise.
void FoldMessages(std::vector<uint64_t> keys, std::vector<HwMsg> msgs,
                  bool open_rows, CoordState* state) {
  RadixSortByKey(keys, &msgs);
  size_t rows = state->size();
  if (open_rows) {
    for (size_t i = 0; i < keys.size(); ++i) rows += i == 0 || keys[i] != keys[i - 1];
  }
  const uint64_t words = state->words();
  CoordState out;
  out.m = state->m;
  out.t1 = state->t1;
  out.index.reserve(rows);
  out.partial.reserve(rows);
  out.senders.reserve(rows * words);
  auto copy_row = [&](size_t row) {
    out.index.push_back(state->index[row]);
    out.partial.push_back(state->partial[row]);
    out.senders.insert(out.senders.end(), state->from(row), state->from(row) + words);
  };
  size_t row = 0;
  size_t i = 0;
  while (i < keys.size()) {
    const uint64_t index = keys[i];
    while (row < state->size() && state->index[row] < index) copy_row(row++);
    if (row < state->size() && state->index[row] == index) {
      copy_row(row++);
    } else if (open_rows) {
      out.index.push_back(index);
      out.partial.push_back(0.0);
      out.senders.resize(out.senders.size() + words, 0);
    } else {
      while (i < keys.size() && keys[i] == index) ++i;
      continue;
    }
    double& partial = out.partial.back();
    uint64_t* from = out.senders.data() + out.senders.size() - words;
    for (; i < keys.size() && keys[i] == index; ++i) {
      const HwMsg& msg = msgs[i];
      const uint64_t bit = uint64_t{1} << (msg.split % 64);
      if ((from[msg.split / 64] & bit) == 0) {
        partial += msg.value;
        from[msg.split / 64] |= bit;
      }
    }
  }
  while (row < state->size()) copy_row(row++);
  *state = std::move(out);
}

// tau(x) = 0 when the bounds straddle zero, else min(|tau+|, |tau-|).
double MagnitudeLowerBound(double tau_plus, double tau_minus) {
  if ((tau_plus >= 0) != (tau_minus >= 0)) return 0.0;
  return std::min(std::fabs(tau_plus), std::fabs(tau_minus));
}

double KthLargest(std::vector<double> vals, size_t k) {
  if (vals.size() < k || k == 0) return 0.0;
  std::nth_element(vals.begin(), vals.begin() + (k - 1), vals.end(),
                   std::greater<>());
  return vals[k - 1];
}

// ---------------------------------------------------------------------------
// Round 1
// ---------------------------------------------------------------------------

class Round1Mapper : public MapperBase<Round1Mapper, uint64_t, HwMsg> {
 public:
  Round1Mapper(uint64_t split, const BuildOptions& options)
      : split_(static_cast<uint32_t>(split)), options_(options) {}

  template <typename Ctx>
  void RunImpl(Ctx& ctx) {
    const uint64_t u = ctx.input().dataset_info().domain_size;
    SortedSparseVector v = CountSortedKeys(ctx.input().ReadAllKeys());

    std::vector<WCoeff> coeffs;
    if (options_.use_dense_local_transform) {
      std::vector<double> dense(u, 0.0);
      for (size_t i = 0; i < v.keys.size(); ++i) dense[v.keys[i]] = v.weights[i];
      ctx.ChargeCpuNs(static_cast<double>(u) * kCoeffOpNs);
      std::vector<double> w = ForwardHaar(dense);
      for (uint64_t i = 0; i < u; ++i) {
        if (w[i] != 0.0) coeffs.push_back({i, w[i]});
      }
    } else {
      ctx.ChargeCpuNs(static_cast<double>(v.keys.size()) * PointUpdateFanout(u) *
                      kCoeffOpNs);
      coeffs = SparseHaarSorted(std::move(v), u);
    }
    ctx.ChargeCpuNs(static_cast<double>(coeffs.size()) * kTopKSelectNs);

    // k highest positive and k lowest negative coefficients. Absent
    // coefficients are exactly zero, so when a split has fewer than k
    // positive (negative) entries the k-th bound is 0 and no mark is sent;
    // the coordinator defaults those bounds to 0.
    // Selection works on positions into `coeffs`; coeffs is in index order,
    // so the position breaks value ties exactly as the index would.
    const size_t k = options_.k;
    std::vector<uint32_t> pos, neg;
    for (uint32_t p = 0; p < coeffs.size(); ++p) {
      (coeffs[p].value > 0 ? pos : neg).push_back(p);
    }
    size_t tp = std::min(pos.size(), k);
    std::partial_sort(pos.begin(), pos.begin() + tp, pos.end(),
                      [&coeffs](uint32_t a, uint32_t b) {
                        if (coeffs[a].value != coeffs[b].value) {
                          return coeffs[a].value > coeffs[b].value;
                        }
                        return a < b;
                      });
    size_t tn = std::min(neg.size(), k);
    std::partial_sort(neg.begin(), neg.begin() + tn, neg.end(),
                      [&coeffs](uint32_t a, uint32_t b) {
                        if (coeffs[a].value != coeffs[b].value) {
                          return coeffs[a].value < coeffs[b].value;
                        }
                        return a < b;
                      });

    // send[p]: kSend plus the marks for a coefficient that goes out now.
    constexpr uint8_t kSend = 4;
    std::vector<uint8_t> send(coeffs.size(), 0);
    for (size_t t = 0; t < tp; ++t) {
      send[pos[t]] = kSend | ((t == k - 1 && pos.size() >= k) ? kMarksKthHigh : 0);
    }
    for (size_t t = 0; t < tn; ++t) {
      send[neg[t]] = kSend | ((t == k - 1 && neg.size() >= k) ? kMarksKthLow : 0);
    }

    std::vector<WCoeff> unsent;
    unsent.reserve(coeffs.size() - tp - tn);
    for (size_t p = 0; p < coeffs.size(); ++p) {
      if (send[p] == 0) {
        unsent.push_back(coeffs[p]);
      } else {
        const uint8_t flags = send[p] & (kMarksKthHigh | kMarksKthLow);
        ctx.Emit(coeffs[p].index, HwMsg{coeffs[p].value, split_, flags});
      }
    }
    ctx.SaveState(SerializeCoeffs(unsent));
  }

 private:
  uint32_t split_;
  const BuildOptions& options_;
};

// The coordinator of every round: Absorb appends (index, message) columns,
// and Finish folds them into the state with FoldMessages.
class CoordReducer : public Reducer<uint64_t, HwMsg> {
 public:
  void Absorb(const uint64_t& index, const HwMsg& msg,
              ReduceContext<uint64_t, HwMsg>& ctx) override {
    (void)ctx;
    keys_.push_back(index);
    msgs_.push_back(msg);
  }

 protected:
  void Fold(bool open_rows) {
    FoldMessages(std::move(keys_), std::move(msgs_), open_rows, &state_);
  }

  void Load(ReduceContext<uint64_t, HwMsg>& ctx) {
    auto blob = ctx.LoadState();
    WAVEMR_CHECK(blob.ok()) << "H-WTopk reducer missing coordinator state";
    state_ = CoordState::Deserialize(*blob);
  }

  CoordState state_;

 private:
  std::vector<uint64_t> keys_;
  std::vector<HwMsg> msgs_;
};

class Round1Reducer : public CoordReducer {
 public:
  Round1Reducer(uint64_t m, size_t k) : m_(m), k_(k) {
    kth_high_.assign(m, 0.0);
    kth_low_.assign(m, 0.0);
    state_.m = m;
  }

  void Absorb(const uint64_t& index, const HwMsg& msg,
              ReduceContext<uint64_t, HwMsg>& ctx) override {
    if (msg.flags & kMarksKthHigh) kth_high_[msg.split] = msg.value;
    if (msg.flags & kMarksKthLow) kth_low_[msg.split] = msg.value;
    CoordReducer::Absorb(index, msg, ctx);
  }

  void Finish(ReduceContext<uint64_t, HwMsg>& ctx) override {
    Fold(/*open_rows=*/true);
    double total_high = 0.0, total_low = 0.0;
    for (uint64_t j = 0; j < m_; ++j) {
      total_high += kth_high_[j];
      total_low += kth_low_[j];
    }
    std::vector<double> taus;
    taus.reserve(state_.size());
    for (size_t row = 0; row < state_.size(); ++row) {
      double tau_plus = state_.partial[row] + total_high;
      double tau_minus = state_.partial[row] + total_low;
      // Senders in ascending split order.
      for (uint64_t w = 0; w < state_.words(); ++w) {
        for (uint64_t bits = state_.from(row)[w]; bits != 0; bits &= bits - 1) {
          const uint64_t j = w * 64 + static_cast<uint64_t>(std::countr_zero(bits));
          tau_plus -= kth_high_[j];
          tau_minus -= kth_low_[j];
        }
      }
      taus.push_back(MagnitudeLowerBound(tau_plus, tau_minus));
    }
    ctx.ChargeCpuNs(static_cast<double>(state_.size()) * m_ * 2.0);
    state_.t1 = KthLargest(std::move(taus), k_);
    ctx.SaveState(state_.Serialize());
  }

  double t1() const { return state_.t1; }

 private:
  uint64_t m_;
  size_t k_;
  std::vector<double> kth_high_, kth_low_;
};

// ---------------------------------------------------------------------------
// Round 2
// ---------------------------------------------------------------------------

class Round2Mapper : public MapperBase<Round2Mapper, uint64_t, HwMsg> {
 public:
  explicit Round2Mapper(uint64_t split) : split_(static_cast<uint32_t>(split)) {}

  template <typename Ctx>
  void RunImpl(Ctx& ctx) {
    // No input-split scan in this round: only the state file is read.
    std::vector<WCoeff> coeffs = LoadCoeffs(ctx.LoadState());
    double threshold = ctx.config().GetDouble(kConfigT1OverM).value();
    ctx.ChargeCpuNs(static_cast<double>(coeffs.size()) * kStateEntryNs);

    // Emit what clears T1/m and compact the rest in place, keeping index
    // order for round 3's merge join.
    size_t kept = 0;
    for (const WCoeff& c : coeffs) {
      if (std::fabs(c.value) > threshold) {
        ctx.Emit(c.index, HwMsg{c.value, split_, 0});
      } else {
        coeffs[kept++] = c;
      }
    }
    coeffs.resize(kept);
    ctx.SaveState(SerializeCoeffs(coeffs));
  }

 private:
  uint32_t split_;
};

class Round2Reducer : public CoordReducer {
 public:
  explicit Round2Reducer(size_t k) : k_(k) {}

  void Start(ReduceContext<uint64_t, HwMsg>& ctx) override { Load(ctx); }

  void Finish(ReduceContext<uint64_t, HwMsg>& ctx) override {
    Fold(/*open_rows=*/true);
    const double threshold = state_.t1 / static_cast<double>(state_.m);
    std::vector<double> taus, prune_bound;
    taus.reserve(state_.size());
    prune_bound.reserve(state_.size());
    for (size_t row = 0; row < state_.size(); ++row) {
      uint64_t missing = state_.m;
      for (uint64_t w = 0; w < state_.words(); ++w) {
        missing -= static_cast<uint64_t>(std::popcount(state_.from(row)[w]));
      }
      double slack = static_cast<double>(missing) * threshold;
      double tau_plus = state_.partial[row] + slack;
      double tau_minus = state_.partial[row] - slack;
      taus.push_back(MagnitudeLowerBound(tau_plus, tau_minus));
      prune_bound.push_back(std::max(std::fabs(tau_plus), std::fabs(tau_minus)));
    }
    ctx.ChargeCpuNs(static_cast<double>(state_.size()) * state_.m);
    t2_ = KthLargest(std::move(taus), k_);

    // Keep only candidates: rows whose refined bound can still reach T2,
    // compacted in place and still in index order.
    const uint64_t words = state_.words();
    std::vector<uint32_t> candidates;
    for (size_t row = 0; row < state_.size(); ++row) {
      if (prune_bound[row] < t2_) continue;
      const size_t kept = candidates.size();
      candidates.push_back(static_cast<uint32_t>(state_.index[row]));
      if (kept == row) continue;
      state_.index[kept] = state_.index[row];
      state_.partial[kept] = state_.partial[row];
      std::copy_n(state_.from(row), words, state_.senders.begin() + kept * words);
    }
    state_.index.resize(candidates.size());
    state_.partial.resize(candidates.size());
    state_.senders.resize(candidates.size() * words);

    // Publish R through the Distributed Cache (4 bytes per candidate id,
    // like the paper's 4-byte coefficient indices).
    Serializer s;
    for (uint32_t c : candidates) s.Put<uint32_t>(c);
    ctx.PublishToCache(kCacheCandidates, s.Release());
    ctx.SaveState(state_.Serialize());
  }

  double t2() const { return t2_; }

 private:
  size_t k_;
  double t2_ = 0.0;
};

// ---------------------------------------------------------------------------
// Round 3
// ---------------------------------------------------------------------------

class Round3Mapper : public MapperBase<Round3Mapper, uint64_t, HwMsg> {
 public:
  explicit Round3Mapper(uint64_t split) : split_(static_cast<uint32_t>(split)) {}

  template <typename Ctx>
  void RunImpl(Ctx& ctx) {
    const std::vector<WCoeff> coeffs = LoadCoeffs(ctx.LoadState());

    auto cache_blob = ctx.cache().Get(kCacheCandidates);
    WAVEMR_CHECK(cache_blob.ok()) << "round-3 mapper missing candidate set";

    ctx.ChargeCpuNs(static_cast<double>(coeffs.size()) * kStateEntryNs);
    // Everything left in the state file was never sent (|w| <= T1/m); emit
    // the candidates' scores so the coordinator can finalize exact sums.
    // Both R and the state are in index order: merge-join them.
    Deserializer d(*cache_blob);
    auto it = coeffs.begin();
    while (!d.Done() && it != coeffs.end()) {
      const uint64_t candidate = d.Get<uint32_t>();
      it = std::lower_bound(it, coeffs.end(), candidate,
                            [](const WCoeff& c, uint64_t index) { return c.index < index; });
      if (it != coeffs.end() && it->index == candidate) {
        ctx.Emit(candidate, HwMsg{it->value, split_, 0});
      }
    }
  }

 private:
  uint32_t split_;
};

class Round3Reducer : public CoordReducer {
 public:
  explicit Round3Reducer(size_t k) : k_(k) {}

  void Start(ReduceContext<uint64_t, HwMsg>& ctx) override { Load(ctx); }

  void Finish(ReduceContext<uint64_t, HwMsg>& ctx) override {
    Fold(/*open_rows=*/false);  // only candidates in R are completed
    std::vector<WCoeff> finals;
    finals.reserve(state_.size());
    for (size_t row = 0; row < state_.size(); ++row) {
      finals.push_back({state_.index[row], state_.partial[row]});
    }
    ctx.ChargeCpuNs(static_cast<double>(finals.size()) * kTopKSelectNs);
    result_ = TopKByMagnitude(std::move(finals), k_);
  }

  std::vector<WCoeff> TakeResult() { return std::move(result_); }

 private:
  size_t k_;
  std::vector<WCoeff> result_;
};

}  // namespace

StatusOr<BuildResult> HWTopk::Build(const Dataset& dataset,
                                    const BuildOptions& options) {
  MrEnv env;
  ConfigureMrEnv(options, &env);

  const uint64_t m = dataset.info().num_splits;
  if (dataset.info().domain_size > (uint64_t{1} << 32)) {
    return Status::InvalidArgument("H-WTopk wire format assumes u <= 2^32");
  }
  auto wire = [](const uint64_t*, const HwMsg*, size_t n) { return n * kPairBytes; };

  // ---- Round 1.
  Round1Reducer r1(m, options.k);
  {
    JobPlan<uint64_t, HwMsg> plan;
    plan.name = "h-wtopk-round1";
    plan.mapper_factory = [&options](uint64_t split) {
      return std::make_unique<Round1Mapper>(split, options);
    };
    plan.reducer = &r1;
    plan.wire_bytes = wire;
    RunRound(plan, dataset, &env);
  }

  // The driver ships T1/m to every round-2 task via the Job Configuration.
  env.config.SetDouble(kConfigT1OverM, r1.t1() / static_cast<double>(m));

  // ---- Round 2.
  Round2Reducer r2(options.k);
  {
    JobPlan<uint64_t, HwMsg> plan;
    plan.name = "h-wtopk-round2";
    plan.mapper_factory = [](uint64_t split) {
      return std::make_unique<Round2Mapper>(split);
    };
    plan.reducer = &r2;
    plan.wire_bytes = wire;
    RunRound(plan, dataset, &env);
  }

  // ---- Round 3.
  Round3Reducer r3(options.k);
  {
    JobPlan<uint64_t, HwMsg> plan;
    plan.name = "h-wtopk-round3";
    plan.mapper_factory = [](uint64_t split) {
      return std::make_unique<Round3Mapper>(split);
    };
    plan.reducer = &r3;
    plan.wire_bytes = wire;
    RunRound(plan, dataset, &env);
  }

  BuildResult result;
  result.histogram = WaveletHistogram(dataset.info().domain_size, r3.TakeResult());
  result.stats = std::move(env.stats);
  return result;
}

}  // namespace wavemr
