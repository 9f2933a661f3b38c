#ifndef WAVEMR_SERVE_SERVE_MAIN_H_
#define WAVEMR_SERVE_SERVE_MAIN_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/flags.h"
#include "core/status.h"
#include "data/dataset.h"
#include "histogram/algorithm.h"
#include "histogram/builder.h"

namespace wavemr {

/// Dataset selection shared by `wavemr_cli build` and the serve front end:
/// exactly one of --input (binary record file) or --generate (synthetic).
struct DataArgs {
  std::string input;
  std::string generate;  // "zipf" | "worldcup"
  uint64_t n = 1 << 20;
  double alpha = 1.1;
  uint64_t u = 1 << 16;
  uint64_t splits = 64;
  uint64_t record_bytes = 4;
  uint64_t seed = 42;
};

void RegisterDataFlags(FlagParser* parser, DataArgs* args);

/// Opens/generates the dataset described by `args` (validates that exactly
/// one source was selected).
StatusOr<std::unique_ptr<Dataset>> MakeDataset(const DataArgs& args);

/// Build parameters shared by `wavemr_cli build` and the serve front end.
struct BuildArgs {
  std::string algo = "twolevel-s";
  uint64_t k = 30;
  double eps = 0.01;
  int threads = 0;
  int reduce_tasks = 0;
  uint64_t shuffle_buffer_bytes = IoOptions().shuffle_buffer_bytes;
  bool force_sorted_shuffle = false;
  /// Fault-injection spec (core/failpoint.h grammar); empty = disarmed.
  /// Recovery paths keep results bit-identical, so this is safe to combine
  /// with determinism checks -- only the recovery counters change.
  std::string failpoints;

  /// Assembles BuildOptions (validated centrally by BuildOptions::Validate
  /// inside BuildWaveletHistogram; no checks here).
  BuildOptions ToBuildOptions(uint64_t seed) const;
};

void RegisterBuildFlags(FlagParser* parser, BuildArgs* args);

/// The `wavemr_serve` program (also `wavemr_cli serve`): builds or loads an
/// initial snapshot, publishes it, starts a QueryServer, prints
/// "wavemr_serve listening on port N" to stdout, and blocks until
/// SIGINT/SIGTERM. The kRebuild op republishes: from a dataset it rebuilds
/// with a fresh seed; from a --snapshot file it reloads the file.
/// Parses argv[start, argc); returns the process exit code.
int ServeMain(int argc, char* const* argv, int start);

}  // namespace wavemr

#endif  // WAVEMR_SERVE_SERVE_MAIN_H_
