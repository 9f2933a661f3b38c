// Microbenchmarks of the wavelet-domain Group-Count Sketch that backs
// Send-Sketch (google-benchmark): per-point updates and top-k recovery.
#include <benchmark/benchmark.h>

#include "core/rng.h"
#include "sketch/wavelet_gcs.h"

namespace wavemr {
namespace {

void BM_WaveletGcsDataUpdate(benchmark::State& state) {
  const uint64_t u = uint64_t{1} << state.range(0);
  WaveletGcsOptions opt;
  opt.total_bytes = 20480ull * state.range(0);
  WaveletGcs sketch(u, opt);
  Rng rng(2);
  for (auto _ : state) {
    sketch.UpdateData(rng.NextBounded(u), 1.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WaveletGcsDataUpdate)->Arg(16)->Arg(20);

void BM_WaveletGcsTopK(benchmark::State& state) {
  const uint64_t u = 1 << 16;
  WaveletGcsOptions opt;
  opt.total_bytes = 20480ull * 16;
  WaveletGcs sketch(u, opt);
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) sketch.UpdateData(rng.NextBounded(u), 5.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.FindTopK(30));
  }
}
BENCHMARK(BM_WaveletGcsTopK);

}  // namespace
}  // namespace wavemr

BENCHMARK_MAIN();
