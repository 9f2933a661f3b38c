#include "exact/send_coef.h"

#include "core/flat_hash.h"
#include "mapreduce/job.h"
#include "wavelet/haar.h"
#include "wavelet/sparse.h"
#include "wavelet/topk.h"

namespace wavemr {

namespace {

// K2 = coefficient index (4 bytes on the wire), V2 = 8-byte double.
constexpr uint64_t kPairBytes = 12;

class SendCoefMapper : public MapperBase<SendCoefMapper, uint64_t, double> {
 public:
  explicit SendCoefMapper(const BuildOptions& options) : options_(options) {}

  template <typename Ctx>
  void RunImpl(Ctx& ctx) {
    const uint64_t u = ctx.input().dataset_info().domain_size;
    SortedSparseVector v = CountSortedKeys(ctx.input().ReadAllKeys());

    if (options_.use_dense_local_transform) {
      // Ablation: the O(u) centralized transform of [26] instead of the
      // O(|v_j| log u) streaming transform of [20] (Appendix A discussion).
      std::vector<double> dense(u, 0.0);
      for (size_t i = 0; i < v.keys.size(); ++i) dense[v.keys[i]] = v.weights[i];
      ctx.ChargeCpuNs(static_cast<double>(u) * kCoeffOpNs);
      std::vector<double> coeffs = ForwardHaar(dense);
      for (uint64_t i = 0; i < u; ++i) {
        if (coeffs[i] != 0.0) ctx.Emit(i, coeffs[i]);
      }
      return;
    }

    ctx.ChargeCpuNs(static_cast<double>(v.keys.size()) * PointUpdateFanout(u) *
                    kCoeffOpNs);
    for (const WCoeff& c : SparseHaarSorted(std::move(v), u)) {
      ctx.Emit(c.index, c.value);
    }
  }

 private:
  BuildOptions options_;
};

class SendCoefReducer : public Reducer<uint64_t, double> {
 public:
  explicit SendCoefReducer(size_t k) : k_(k) {}

  void Absorb(const uint64_t& index, const double& value,
              ReduceContext<uint64_t, double>& ctx) override {
    (void)ctx;
    sums_[index] += value;
  }

  void Finish(ReduceContext<uint64_t, double>& ctx) override {
    std::vector<WCoeff> coeffs;
    coeffs.reserve(sums_.size());
    for (const auto& [idx, val] : sums_) coeffs.push_back({idx, val});
    ctx.ChargeCpuNs(static_cast<double>(coeffs.size()) * kTopKSelectNs);
    result_ = TopKByMagnitude(std::move(coeffs), k_);
  }

  std::vector<WCoeff> TakeResult() { return std::move(result_); }

 private:
  size_t k_;
  FlatHashCounter<uint64_t, double> sums_;
  std::vector<WCoeff> result_;
};

}  // namespace

StatusOr<BuildResult> SendCoef::Build(const Dataset& dataset,
                                      const BuildOptions& options) {
  MrEnv env;
  ConfigureMrEnv(options, &env);

  SendCoefReducer reducer(options.k);

  JobPlan<uint64_t, double> plan;
  plan.name = "send-coef";
  plan.mapper_factory = [&options](uint64_t) {
    return std::make_unique<SendCoefMapper>(options);
  };
  plan.reducer = &reducer;
  plan.wire_bytes = [](const uint64_t*, const double*, size_t n) {
    return n * kPairBytes;
  };

  RunRound(plan, dataset, &env);

  BuildResult result;
  result.histogram = WaveletHistogram(dataset.info().domain_size, reducer.TakeResult());
  result.stats = std::move(env.stats);
  return result;
}

}  // namespace wavemr
