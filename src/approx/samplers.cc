#include "approx/samplers.h"

#include <cmath>

#include "approx/sampling_common.h"
#include "core/rng.h"
#include "mapreduce/job.h"

namespace wavemr {

namespace {

// Wire sizes follow the paper's accounting: 4-byte keys, 4-byte sample
// counts; a (x, NULL) pair carries only the key.
constexpr uint64_t kKeyCountBytes = 8;
constexpr uint64_t kKeyNullBytes = 4;

// ---------------------------------------------------------------- Basic-S

class BasicMapper : public MapperBase<BasicMapper, uint64_t, uint64_t> {
 public:
  BasicMapper(double p, uint64_t seed) : p_(p), seed_(seed) {}

  template <typename Ctx>
  void RunImpl(Ctx& ctx) {
    LocalSample sample = DrawLevelOneSample(ctx.input(), p_, seed_);
    for (const auto& [key, count] : sample.counts) ctx.Emit(key, count);
  }

 private:
  double p_;
  uint64_t seed_;
};

class BasicReducer : public Reducer<uint64_t, uint64_t> {
 public:
  BasicReducer(uint64_t u, size_t k, double p) : u_(u), k_(k), p_(p) {}

  void Absorb(const uint64_t& key, const uint64_t& count,
              ReduceContext<uint64_t, uint64_t>& ctx) override {
    (void)ctx;
    s_[key] += count;
  }

  void Finish(ReduceContext<uint64_t, uint64_t>& ctx) override {
    FlatHashCounter<uint64_t, double> vhat;
    vhat.reserve(s_.size());
    for (const auto& [key, count] : s_) {
      vhat[key] = static_cast<double>(count) / p_;  // unbiased v(x) estimate
    }
    result_ = TopKFromEstimatedFrequencies(
        vhat, u_, k_, [&ctx](double ns) { ctx.ChargeCpuNs(ns); });
  }

  std::vector<WCoeff> TakeResult() { return std::move(result_); }

 private:
  uint64_t u_;
  size_t k_;
  double p_;
  FlatHashCounter<uint64_t, uint64_t> s_;
  std::vector<WCoeff> result_;
};

// -------------------------------------------------------------- Improved-S

class ImprovedMapper : public MapperBase<ImprovedMapper, uint64_t, uint64_t> {
 public:
  ImprovedMapper(double p, double epsilon, uint64_t seed)
      : p_(p), epsilon_(epsilon), seed_(seed) {}

  template <typename Ctx>
  void RunImpl(Ctx& ctx) {
    LocalSample sample = DrawLevelOneSample(ctx.input(), p_, seed_);
    // Only keys with s_j(x) >= eps * t_j are shipped; at most 1/eps of them.
    double threshold = epsilon_ * static_cast<double>(sample.t_j);
    for (const auto& [key, count] : sample.counts) {
      if (static_cast<double>(count) >= threshold) ctx.Emit(key, count);
    }
  }

 private:
  double p_;
  double epsilon_;
  uint64_t seed_;
};

// ------------------------------------------------------------- TwoLevel-S

// Value of a TwoLevel-S pair: an exact sample count, or NULL (the
// second-level survival token). count == 0 encodes NULL.
struct TwoLevelMsg {
  uint32_t count = 0;
  bool is_null() const { return count == 0; }
};

class TwoLevelMapper : public MapperBase<TwoLevelMapper, uint64_t, TwoLevelMsg> {
 public:
  TwoLevelMapper(double p, double epsilon, uint64_t m, uint64_t seed)
      : p_(p), epsilon_(epsilon), m_(m), seed_(seed) {}

  template <typename Ctx>
  void RunImpl(Ctx& ctx) {
    LocalSample sample = DrawLevelOneSample(ctx.input(), p_, seed_);
    const double eps_sqrt_m = epsilon_ * std::sqrt(static_cast<double>(m_));
    const double threshold = 1.0 / eps_sqrt_m;
    // The survival coin for a light key is drawn from a stream keyed by
    // (seed, split, key), so the sampled set is a pure function of the data
    // -- independent of the hash map's iteration order.
    const uint64_t coin_seed = Mix64(seed_ ^ 0x7c0ffee5u ^ (ctx.split_id() + 1));
    for (const auto& [key, count] : sample.counts) {
      if (static_cast<double>(count) >= threshold) {
        // Heavy in this split: ship the exact count.
        ctx.Emit(key, TwoLevelMsg{static_cast<uint32_t>(count)});
      } else {
        Rng rng(Mix64(coin_seed ^ key));
        if (rng.Bernoulli(eps_sqrt_m * static_cast<double>(count))) {
          // Light: survives level 2 with probability proportional to its
          // frequency relative to 1/(eps sqrt(m)); ship (x, NULL).
          ctx.Emit(key, TwoLevelMsg{0});
        }
      }
    }
  }

 private:
  double p_;
  double epsilon_;
  uint64_t m_;
  uint64_t seed_;
};

class TwoLevelReducer : public Reducer<uint64_t, TwoLevelMsg> {
 public:
  TwoLevelReducer(uint64_t u, size_t k, double p, double epsilon, uint64_t m)
      : u_(u), k_(k), p_(p), eps_sqrt_m_(epsilon * std::sqrt(static_cast<double>(m))) {}

  void Absorb(const uint64_t& key, const TwoLevelMsg& msg,
              ReduceContext<uint64_t, TwoLevelMsg>& ctx) override {
    (void)ctx;
    Entry& e = entries_[key];
    if (msg.is_null()) {
      e.null_count += 1;  // M(x)
    } else {
      e.rho += msg.count;  // rho(x)
    }
  }

  void Finish(ReduceContext<uint64_t, TwoLevelMsg>& ctx) override {
    FlatHashCounter<uint64_t, double> vhat;
    vhat.reserve(entries_.size());
    for (const auto& [key, e] : entries_) {
      double s_hat =
          static_cast<double>(e.rho) + static_cast<double>(e.null_count) / eps_sqrt_m_;
      vhat[key] = s_hat / p_;
    }
    result_ = TopKFromEstimatedFrequencies(
        vhat, u_, k_, [&ctx](double ns) { ctx.ChargeCpuNs(ns); });
  }

  std::vector<WCoeff> TakeResult() { return std::move(result_); }

 private:
  struct Entry {
    uint64_t rho = 0;
    uint64_t null_count = 0;
  };
  uint64_t u_;
  size_t k_;
  double p_;
  double eps_sqrt_m_;
  FlatHashCounter<uint64_t, Entry> entries_;
  std::vector<WCoeff> result_;
};

}  // namespace

StatusOr<BuildResult> BasicSampling::Build(const Dataset& dataset,
                                           const BuildOptions& options) {
  MrEnv env;
  ConfigureMrEnv(options, &env);
  const double p = LevelOneProbability(options.epsilon, dataset.info().num_records);

  BasicReducer reducer(dataset.info().domain_size, options.k, p);
  JobPlan<uint64_t, uint64_t> plan;
  plan.name = "basic-s";
  plan.mapper_factory = [&options, p](uint64_t) {
    return std::make_unique<BasicMapper>(p, options.seed);
  };
  plan.reducer = &reducer;
  plan.wire_bytes = [](const uint64_t*, const uint64_t*, size_t n) {
    return n * kKeyCountBytes;
  };
  RunRound(plan, dataset, &env);

  BuildResult result;
  result.histogram = WaveletHistogram(dataset.info().domain_size, reducer.TakeResult());
  result.stats = std::move(env.stats);
  return result;
}

StatusOr<BuildResult> ImprovedSampling::Build(const Dataset& dataset,
                                              const BuildOptions& options) {
  MrEnv env;
  ConfigureMrEnv(options, &env);
  const double p = LevelOneProbability(options.epsilon, dataset.info().num_records);

  // Improved-S reuses Basic-S's reducer: sum received counts, scale by 1/p.
  // The bias comes from what the mappers never send.
  BasicReducer reducer(dataset.info().domain_size, options.k, p);
  JobPlan<uint64_t, uint64_t> plan;
  plan.name = "improved-s";
  plan.mapper_factory = [&options, p](uint64_t) {
    return std::make_unique<ImprovedMapper>(p, options.epsilon, options.seed);
  };
  plan.reducer = &reducer;
  plan.wire_bytes = [](const uint64_t*, const uint64_t*, size_t n) {
    return n * kKeyCountBytes;
  };
  RunRound(plan, dataset, &env);

  BuildResult result;
  result.histogram = WaveletHistogram(dataset.info().domain_size, reducer.TakeResult());
  result.stats = std::move(env.stats);
  return result;
}

StatusOr<BuildResult> TwoLevelSampling::Build(const Dataset& dataset,
                                              const BuildOptions& options) {
  MrEnv env;
  ConfigureMrEnv(options, &env);
  const uint64_t m = dataset.info().num_splits;
  const double p = LevelOneProbability(options.epsilon, dataset.info().num_records);

  // n and eps reach the mappers through the Job Configuration, as in
  // Appendix B.
  env.config.SetUint("sampling.n", dataset.info().num_records);
  env.config.SetDouble("sampling.epsilon", options.epsilon);

  TwoLevelReducer reducer(dataset.info().domain_size, options.k, p, options.epsilon, m);
  JobPlan<uint64_t, TwoLevelMsg> plan;
  plan.name = "twolevel-s";
  plan.mapper_factory = [&options, p, m](uint64_t) {
    return std::make_unique<TwoLevelMapper>(p, options.epsilon, m, options.seed);
  };
  plan.reducer = &reducer;
  plan.wire_bytes = [](const uint64_t*, const TwoLevelMsg* msgs, size_t n) {
    uint64_t bytes = 0;
    for (size_t i = 0; i < n; ++i) {
      bytes += msgs[i].is_null() ? kKeyNullBytes : kKeyCountBytes;
    }
    return bytes;
  };
  RunRound(plan, dataset, &env);

  BuildResult result;
  result.histogram = WaveletHistogram(dataset.info().domain_size, reducer.TakeResult());
  result.stats = std::move(env.stats);
  return result;
}

}  // namespace wavemr
