// wavemr command-line tool, three subcommands:
//
//   wavemr_cli build (--input=FILE | --generate=zipf|worldcup) [options]
//       build a wavelet histogram with any of the paper's algorithms,
//       optionally evaluate it (--evaluate) or save it (--out=FILE)
//   wavemr_cli serve ...
//       serve a snapshot over TCP (same engine as the wavemr_serve binary)
//   wavemr_cli query --port=N (--point=X | --range=LO,HI | --topk=N |
//                              --stats | --rebuild)
//       query a running server
//
// A legacy flat invocation (first argument is a --flag) forwards to `build`
// with a deprecation warning. Exit code 0 on success; errors go to stderr.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/failpoint.h"
#include "core/flags.h"
#include "core/io.h"
#include "core/thread_pool.h"
#include "data/frequency.h"
#include "histogram/builder.h"
#include "serve/client.h"
#include "serve/estimator.h"
#include "serve/serve_main.h"
#include "serve/snapshot.h"

namespace wavemr {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: wavemr_cli <build|serve|query> [options]\n"
      "  build   build a wavelet histogram (see wavemr_cli build --help)\n"
      "  serve   serve a snapshot over TCP  (see wavemr_cli serve --help)\n"
      "  query   query a running server     (see wavemr_cli query --help)\n");
  return 2;
}

int FlagError(const Status& status, const FlagParser& parser) {
  std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
               parser.Help().c_str());
  return 2;
}

// ---------------------------------------------------------------------------
// wavemr_cli build
// ---------------------------------------------------------------------------

int BuildMain(int argc, char** argv, int start) {
  DataArgs data;
  BuildArgs build;
  std::string out_file;
  bool evaluate = false;
  bool dump = false;
  FlagParser parser(
      "wavemr_cli build (--input=FILE | --generate=zipf|worldcup) [options]");
  RegisterDataFlags(&parser, &data);
  RegisterBuildFlags(&parser, &build);
  parser.String("out", &out_file, "save the snapshot to this file (servable "
                                  "with wavemr_cli serve --snapshot)");
  parser.Bool("evaluate", &evaluate,
              "also compute SSE vs the exact coefficients (scans the data)");
  parser.Bool("dump", &dump, "print the retained coefficients");

  Status st = parser.Parse(argc, argv, start);
  if (!st.ok()) return FlagError(st, parser);
  if (parser.help_requested()) {
    std::printf("%s", parser.Help().c_str());
    return 0;
  }

  if (!build.failpoints.empty()) {
    st = Failpoints::ArmFromSpec(build.failpoints);
    if (!st.ok()) return FlagError(st, parser);
  }
  auto io_backend = ParseIoBackendKind(build.spill_io);
  if (!io_backend.ok()) return FlagError(io_backend.status(), parser);

  auto dataset = MakeDataset(data);
  if (!dataset.ok()) return FlagError(dataset.status(), parser);

  auto kind = ParseAlgorithmKind(build.algo);
  if (!kind.ok()) return FlagError(kind.status(), parser);

  auto result =
      BuildWaveletHistogram(**dataset, *kind, build.ToBuildOptions(data.seed));
  if (!result.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("algorithm   : %s\n", result->algorithm.c_str());
  std::printf("dataset     : n=%llu u=%llu m=%llu\n",
              static_cast<unsigned long long>((*dataset)->info().num_records),
              static_cast<unsigned long long>((*dataset)->info().domain_size),
              static_cast<unsigned long long>((*dataset)->info().num_splits));
  std::printf("threads     : %d\n",
              build.threads == 0 ? ThreadPool::DefaultThreadCount()
                                 : build.threads);
  std::printf("synopsis    : %zu terms\n", result->histogram.num_terms());
  std::printf("rounds      : %zu\n", result->stats.NumRounds());
  std::printf("map wall ms : %.1f\n", result->stats.TotalMapWallMs());
  std::printf("comm bytes  : %llu\n",
              static_cast<unsigned long long>(result->stats.TotalCommBytes()));
  std::printf("sim seconds : %.2f\n", result->stats.TotalSeconds());
  std::printf("spill files : %llu\n",
              static_cast<unsigned long long>(result->stats.TotalSpillFiles()));
  std::printf("spill bytes : %llu\n",
              static_cast<unsigned long long>(result->stats.TotalSpillBytes()));
  std::printf("spill sim s : %.2f\n", result->stats.TotalSpillSeconds());
  // Engine line, "spill"-prefixed so bit-identity diffs that compare sync
  // vs async runs filter it with the other spill/timing lines.
  std::printf("spill io    : %s (queue %d, prefetch %d)\n",
              IoBackendKindName(IoOptions{*io_backend, 0,
                                          build.io_queue_depth,
                                          build.io_prefetch_depth}
                                    .ResolvedBackend()),
              build.io_queue_depth, build.io_prefetch_depth);
  // Recovery telemetry (0/0 on a healthy disk; environment-dependent, so
  // bit-identity diffs must filter this line like the timing lines).
  std::printf("spill rescue: %llu fallbacks, %llu retries\n",
              static_cast<unsigned long long>(
                  result->stats.TotalSpillFallbacks()),
              static_cast<unsigned long long>(
                  result->stats.TotalSpillRetries()));
  // Worst per-round equi-depth range balance (max/min planned pairs; 0 =
  // no partitioned sorted round).
  double spread = 0.0;
  for (const RoundStats& r : result->stats.rounds) {
    spread = std::max(spread, r.ReduceRangeSpread());
  }
  std::printf("reduce skew : %.3f (max/min pairs per range)\n", spread);

  if (evaluate || !out_file.empty()) {
    HistogramSnapshot snapshot = result->ToSnapshot();
    if (evaluate) {
      std::vector<WCoeff> truth = TrueCoefficients(**dataset);
      std::printf("SSE         : %.6e\n",
                  SseAgainstTrueCoefficients(snapshot, truth));
      std::printf("ideal SSE   : %.6e\n",
                  IdealSse(truth, static_cast<size_t>(build.k)));
    }
    if (!out_file.empty()) {
      st = snapshot.WriteFile(out_file);
      if (!st.ok()) {
        std::fprintf(stderr, "cannot write snapshot: %s\n",
                     st.ToString().c_str());
        return 1;
      }
      std::printf("snapshot    : %s (%zu terms)\n", out_file.c_str(),
                  snapshot.num_terms());
    }
  }
  if (dump) {
    std::printf("coefficients (index value):\n");
    for (const WCoeff& c : result->histogram.coefficients()) {
      std::printf("  %llu %.10g\n", static_cast<unsigned long long>(c.index),
                  c.value);
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// wavemr_cli query
// ---------------------------------------------------------------------------

int QueryMain(int argc, char** argv, int start) {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string point;
  std::string range;
  std::string topk;
  bool stats = false;
  bool rebuild = false;
  FlagParser parser(
      "wavemr_cli query --port=N (--point=X | --range=LO,HI | --topk=N | "
      "--stats | --rebuild)");
  parser.String("host", &host, "server host");
  parser.I32("port", &port, "server port (required)");
  parser.String("point", &point, "estimate the frequency of key X");
  parser.String("range", &range, "estimate the frequency sum over [LO,HI)");
  parser.String("topk", &topk, "fetch the N largest-magnitude coefficients");
  parser.Bool("stats", &stats, "fetch server + snapshot statistics");
  parser.Bool("rebuild", &rebuild,
              "ask the server to rebuild and publish a new version");

  Status st = parser.Parse(argc, argv, start);
  if (!st.ok()) return FlagError(st, parser);
  if (parser.help_requested()) {
    std::printf("%s", parser.Help().c_str());
    return 0;
  }
  if (port <= 0) return FlagError(Status::InvalidArgument("--port is required"), parser);
  const int ops = (!point.empty()) + (!range.empty()) + (!topk.empty()) +
                  stats + rebuild;
  if (ops != 1) {
    return FlagError(Status::InvalidArgument(
                         "exactly one of --point/--range/--topk/--stats/"
                         "--rebuild is required"),
                     parser);
  }

  ServeClient client;
  st = client.Connect(host, port);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  // Estimates print with %.17g: enough digits that the printed value
  // round-trips to the exact double the server computed.
  if (!point.empty()) {
    const uint64_t x = std::strtoull(point.c_str(), nullptr, 10);
    auto r = client.Point(x);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("point %llu : %.17g (version %llu)\n",
                static_cast<unsigned long long>(x), r->estimate,
                static_cast<unsigned long long>(r->version));
    return 0;
  }
  if (!range.empty()) {
    const size_t comma = range.find(',');
    if (comma == std::string::npos) {
      return FlagError(Status::InvalidArgument("--range expects LO,HI"),
                       parser);
    }
    const uint64_t lo = std::strtoull(range.substr(0, comma).c_str(), nullptr, 10);
    const uint64_t hi = std::strtoull(range.substr(comma + 1).c_str(), nullptr, 10);
    auto r = client.Range(lo, hi);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("range [%llu, %llu) : %.17g (version %llu)\n",
                static_cast<unsigned long long>(lo),
                static_cast<unsigned long long>(hi), r->estimate,
                static_cast<unsigned long long>(r->version));
    return 0;
  }
  if (!topk.empty()) {
    const uint32_t n =
        static_cast<uint32_t>(std::strtoul(topk.c_str(), nullptr, 10));
    auto r = client.TopK(n);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("top %zu coefficients (version %llu):\n",
                r->coefficients.size(),
                static_cast<unsigned long long>(r->version));
    for (const WCoeff& c : r->coefficients) {
      std::printf("  %llu %.17g\n", static_cast<unsigned long long>(c.index),
                  c.value);
    }
    return 0;
  }
  if (rebuild) {
    auto r = client.Rebuild();
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("rebuilt: version %llu\n",
                static_cast<unsigned long long>(*r));
    return 0;
  }
  auto r = client.Stats();
  if (!r.ok()) {
    std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
    return 1;
  }
  std::printf("version        : %llu\n",
              static_cast<unsigned long long>(r->version));
  std::printf("published      : %llu\n",
              static_cast<unsigned long long>(r->snapshots_published));
  std::printf("algorithm      : %s\n", r->algorithm.c_str());
  std::printf("domain size    : %llu\n",
              static_cast<unsigned long long>(r->domain_size));
  std::printf("terms          : %llu\n",
              static_cast<unsigned long long>(r->num_terms));
  std::printf("queries served : %llu\n",
              static_cast<unsigned long long>(r->queries_served));
  std::printf("build comm     : %llu bytes\n",
              static_cast<unsigned long long>(r->build_comm_bytes));
  std::printf("build sim time : %.2f s\n", r->build_sim_seconds);
  std::printf("conns shed     : %llu\n",
              static_cast<unsigned long long>(r->connections_shed));
  std::printf("idle disconnects: %llu\n",
              static_cast<unsigned long long>(r->idle_disconnects));
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "build") return BuildMain(argc, argv, 2);
  if (cmd == "serve") return ServeMain(argc, argv, 2);
  if (cmd == "query") return QueryMain(argc, argv, 2);
  if (cmd == "--help" || cmd == "-h") {
    Usage();
    return 0;
  }
  if (cmd.rfind("--", 0) == 0) {
    // Legacy flat invocation (pre-subcommand scripts): forward to build.
    std::fprintf(stderr,
                 "wavemr_cli: flat flags are deprecated; use "
                 "`wavemr_cli build ...`\n");
    return BuildMain(argc, argv, 1);
  }
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return Usage();
}

}  // namespace
}  // namespace wavemr

int main(int argc, char** argv) { return wavemr::Main(argc, argv); }
