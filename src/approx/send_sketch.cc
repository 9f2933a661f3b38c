#include "approx/send_sketch.h"

#include <cmath>
#include <utility>
#include <vector>

#include "core/bitops.h"
#include "core/rng.h"
#include "mapreduce/job.h"
#include "sketch/wavelet_gcs.h"
#include "wavelet/sparse.h"

namespace wavemr {

namespace {

// Wire: 4-byte counter id + 8-byte double (the paper represents sketch
// entries as 8-byte doubles).
constexpr uint64_t kPairBytes = 12;

// Sketches a split's coefficients into `even` and `odd` (empty sketches of
// one geometry) and returns the split's counters by flat index, each
// exactly 0 when its true value is 0.
//
// The sketch is linear, so sketching the split's coefficient vector w_j
// (index-ordered, as SparseHaarSorted returns it) equals one point update
// per key, with each nonzero coefficient updated once instead of once per
// key under it. Integer counts make a coefficient with support 2^b equal
// d / 2^(b/2) for an integer d: a dyadic rational when b is even, a dyadic
// rational over sqrt(2) when b is odd. Each class goes to its own sketch as
// dyadic values, and one combine per counter rounds once. Summing the
// rounded coefficients in one sketch instead leaves residues of ~1e-15 in
// cells whose coefficients cancel, and each residue ships as a counter.
// The dyadic sums are exact while records * (log2(u) + 1) * sqrt(u) < 2^53;
// past that they round like any float sum.
std::vector<double> ExactSplitCounters(std::vector<WCoeff> coeffs,
                                       WaveletGcs* even, WaveletGcs* odd) {
  const uint32_t bits = Log2Floor(even->domain_size());
  auto support_log2 = [bits](uint64_t index) {
    return bits - CoefficientLevel(index);
  };
  // Index order groups the coefficients by level, so each support size
  // arrives as one index-ordered run.
  for (size_t begin = 0, end; begin < coeffs.size(); begin = end) {
    const uint32_t b = support_log2(coeffs[begin].index);
    const double sqrt_block = std::sqrt(std::ldexp(1.0, b));
    const double scale = std::ldexp(1.0, -static_cast<int>(b / 2));
    for (end = begin; end < coeffs.size() && support_log2(coeffs[end].index) == b;
         ++end) {
      // SparseHaarSorted divided d by sqrt(2^b) once; recover d exactly.
      if (b % 2 == 1) {
        coeffs[end].value = std::nearbyint(coeffs[end].value * sqrt_block) * scale;
      }
    }
    (b % 2 == 1 ? odd : even)->UpdateCoeffs({coeffs.data() + begin, end - begin});
  }
  std::vector<double> counters(even->NumCounters(), 0.0);
  odd->ForEachNonzeroCounter([&counters](uint64_t i, double x) {
    counters[i] = x / std::sqrt(2.0);
  });
  even->ForEachNonzeroCounter(
      [&counters](uint64_t i, double x) { counters[i] += x; });
  return counters;
}

class SketchMapper : public MapperBase<SketchMapper, uint64_t, double> {
 public:
  SketchMapper(uint64_t u, const WaveletGcsOptions& gcs_options)
      : u_(u), gcs_options_(gcs_options) {}

  template <typename Ctx>
  void RunImpl(Ctx& ctx) {
    SortedSparseVector v = CountSortedKeys(ctx.input().ReadAllKeys());
    // Both columns still hold one slot per record; only the distinct keys
    // need to stay live while the coefficient vector is built.
    v.keys.shrink_to_fit();
    v.weights.shrink_to_fit();

    // Charged as the paper's mapper pays it: one data-domain point update
    // (log2(u)+1 coefficients, each into every level and repetition) per
    // distinct key. That per-point cost is why Send-Sketch loses the
    // running-time race in the paper's Figure 5(b), so the simulated cost
    // keeps it even though the work below is cheaper.
    WaveletGcs even(u_, gcs_options_), odd(u_, gcs_options_);
    ctx.ChargeCpuNs(static_cast<double>(v.keys.size()) *
                    static_cast<double>(even.CounterUpdatesPerDataPoint()) *
                    kSketchCounterNs);
    const std::vector<double> counters =
        ExactSplitCounters(SparseHaarSorted(std::move(v), u_), &even, &odd);
    for (uint64_t i = 0; i < counters.size(); ++i) {
      if (counters[i] != 0.0) ctx.Emit(i, counters[i]);
    }
  }

 private:
  uint64_t u_;
  WaveletGcsOptions gcs_options_;
};

class SketchReducer : public Reducer<uint64_t, double> {
 public:
  SketchReducer(uint64_t u, size_t k, const WaveletGcsOptions& gcs_options)
      : k_(k), sketch_(u, gcs_options) {}

  void Absorb(const uint64_t& flat_index, const double& value,
              ReduceContext<uint64_t, double>& ctx) override {
    (void)ctx;
    sketch_.AddToFlatCounter(flat_index, value);
  }

  void Finish(ReduceContext<uint64_t, double>& ctx) override {
    // Hierarchical search: a few group-energy queries per expanded node.
    result_ = sketch_.FindTopK(k_);
    ctx.ChargeCpuNs(static_cast<double>(k_) * 64.0 * kSketchCounterNs);
  }

  std::vector<WCoeff> TakeResult() { return std::move(result_); }

 private:
  size_t k_;
  WaveletGcs sketch_;
  std::vector<WCoeff> result_;
};

}  // namespace

StatusOr<BuildResult> SendSketch::Build(const Dataset& dataset,
                                        const BuildOptions& options) {
  MrEnv env;
  ConfigureMrEnv(options, &env);

  const uint64_t u = dataset.info().domain_size;
  // All mappers and the reducer must draw identical hash functions; derive
  // the sketch seed from the run seed.
  WaveletGcsOptions gcs = options.gcs;
  gcs.seed = Mix64(options.seed ^ 0x9c75e5eed123ULL);

  SketchReducer reducer(u, options.k, gcs);
  JobPlan<uint64_t, double> plan;
  plan.name = "send-sketch";
  plan.mapper_factory = [u, gcs](uint64_t) {
    return std::make_unique<SketchMapper>(u, gcs);
  };
  plan.reducer = &reducer;
  plan.wire_bytes = [](const uint64_t*, const double*, size_t n) {
    return n * kPairBytes;
  };
  RunRound(plan, dataset, &env);

  BuildResult result;
  result.histogram = WaveletHistogram(u, reducer.TakeResult());
  result.stats = std::move(env.stats);
  return result;
}

}  // namespace wavemr
