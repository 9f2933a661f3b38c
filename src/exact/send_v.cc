#include "exact/send_v.h"

#include <algorithm>

#include "core/flat_hash.h"
#include "mapreduce/job.h"
#include "wavelet/sparse.h"
#include "wavelet/topk.h"

namespace wavemr {

namespace {

// K2 = key x, V2 = local count. The paper represents v(x) with 4-byte ints
// in mappers (8-byte at the reducer), so a pair costs 4 + 4 bytes on the
// wire.
constexpr uint64_t kPairBytes = 8;

class SendVMapper : public MapperBase<SendVMapper, uint64_t, uint64_t> {
 public:
  explicit SendVMapper(bool emit_per_record) : emit_per_record_(emit_per_record) {}

  template <typename Ctx>
  void RunImpl(Ctx& ctx) {
    if (emit_per_record_) {
      // Hadoop's default pipeline: one pair per record; the engine-side
      // Combiner (if enabled) merges them before the shuffle.
      ctx.input().ScanBatches([&ctx](const uint64_t* keys, uint64_t n) {
        for (uint64_t i = 0; i < n; ++i) ctx.Emit(keys[i], 1);
      });
      return;
    }
    // The paper's pattern: aggregate in a hash map, emit from Close.
    FlatHashCounter<uint64_t, uint64_t> freq;
    freq.reserve(std::min(ctx.input().num_records(),
                          ctx.input().dataset_info().domain_size));
    ctx.input().ScanBatches([&freq](const uint64_t* keys, uint64_t n) {
      for (uint64_t i = 0; i < n; ++i) ++freq[keys[i]];
    });
    for (const auto& [key, count] : freq) ctx.Emit(key, count);
  }

 private:
  bool emit_per_record_;
};

class SendVReducer : public Reducer<uint64_t, uint64_t> {
 public:
  explicit SendVReducer(const BuildOptions& options) : options_(options) {}

  void Absorb(const uint64_t& key, const uint64_t& count,
              ReduceContext<uint64_t, uint64_t>& ctx) override {
    (void)ctx;
    freq_[key] += count;
  }

  void Finish(ReduceContext<uint64_t, uint64_t>& ctx) override {
    // Centralized best k-term representation over the aggregated v.
    SparseVector v;
    v.reserve(freq_.size());
    for (const auto& [key, count] : freq_) {
      v.emplace_back(key, static_cast<double>(count));
    }
    ctx.ChargeCpuNs(static_cast<double>(v.size()) * PointUpdateFanout(u_) *
                    kCoeffOpNs);
    std::vector<WCoeff> coeffs = SparseHaar(v, u_);
    ctx.ChargeCpuNs(static_cast<double>(coeffs.size()) * kTopKSelectNs);
    result_ = TopKByMagnitude(std::move(coeffs), options_.k);
  }

  void set_domain(uint64_t u) { u_ = u; }
  std::vector<WCoeff> TakeResult() { return std::move(result_); }

 private:
  BuildOptions options_;
  uint64_t u_ = 1;
  FlatHashCounter<uint64_t, uint64_t> freq_;
  std::vector<WCoeff> result_;
};

}  // namespace

StatusOr<BuildResult> SendV::Build(const Dataset& dataset, const BuildOptions& options) {
  MrEnv env;
  ConfigureMrEnv(options, &env);

  SendVReducer reducer(options);
  reducer.set_domain(dataset.info().domain_size);

  JobPlan<uint64_t, uint64_t> plan;
  plan.name = "send-v";
  plan.mapper_factory = [&options](uint64_t) {
    return std::make_unique<SendVMapper>(options.send_v_emit_per_record);
  };
  plan.reducer = &reducer;
  plan.wire_bytes = [](const uint64_t*, const uint64_t*, size_t n) {
    return n * kPairBytes;
  };
  if (options.send_v_emit_per_record && !options.send_v_disable_combiner) {
    plan.combiner = [](const uint64_t& a, const uint64_t& b) { return a + b; };
  }

  RunRound(plan, dataset, &env);

  BuildResult result;
  result.histogram = WaveletHistogram(dataset.info().domain_size, reducer.TakeResult());
  result.stats = std::move(env.stats);
  return result;
}

}  // namespace wavemr
