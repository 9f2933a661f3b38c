#include "serve/serve_main.h"

#include <csignal>
#include <cstdio>
#include <utility>

#include "core/failpoint.h"
#include "data/file_dataset.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace wavemr {

void RegisterDataFlags(FlagParser* parser, DataArgs* args) {
  parser->String("input", &args->input,
                 "binary file of fixed-length records (key first)");
  parser->String("generate", &args->generate,
                 "synthetic dataset instead of --input: zipf|worldcup");
  parser->U64("n", &args->n, "generated dataset size");
  parser->F64("alpha", &args->alpha, "generated Zipf skew");
  parser->U64("u", &args->u, "key domain size (power of two)");
  parser->U64("splits", &args->splits, "number of input splits (mappers)");
  parser->U64("record-bytes", &args->record_bytes,
              "record size of the input file (>= 4)");
  parser->U64("seed", &args->seed, "RNG seed for generation and sampling");
}

StatusOr<std::unique_ptr<Dataset>> MakeDataset(const DataArgs& args) {
  if (args.input.empty() == args.generate.empty()) {
    return Status::InvalidArgument(
        "exactly one of --input / --generate is required");
  }
  if (!args.input.empty()) {
    auto file = FileDataset::Open(args.input,
                                  static_cast<uint32_t>(args.record_bytes),
                                  args.u, args.splits);
    if (!file.ok()) return file.status();
    return std::unique_ptr<Dataset>(
        std::make_unique<FileDataset>(std::move(*file)));
  }
  if (args.generate == "zipf") {
    ZipfDatasetOptions z;
    z.num_records = args.n;
    z.domain_size = args.u;
    z.alpha = args.alpha;
    z.num_splits = args.splits;
    z.record_bytes = static_cast<uint32_t>(args.record_bytes);
    z.seed = args.seed;
    return std::unique_ptr<Dataset>(std::make_unique<ZipfDataset>(z));
  }
  if (args.generate == "worldcup") {
    WorldCupDatasetOptions w;
    w.num_records = args.n;
    w.num_clients = std::max<uint64_t>(args.u >> 6, 2);
    w.num_objects = std::min<uint64_t>(args.u, 64);
    w.num_splits = args.splits;
    w.seed = args.seed;
    return std::unique_ptr<Dataset>(std::make_unique<WorldCupDataset>(w));
  }
  return Status::InvalidArgument("unknown --generate (expected zipf|worldcup): " +
                                 args.generate);
}

void RegisterBuildFlags(FlagParser* parser, BuildArgs* args) {
  parser->String("algo", &args->algo,
                 "send-v|send-coef|h-wtopk|basic-s|improved-s|twolevel-s|"
                 "send-sketch");
  parser->U64("k", &args->k, "synopsis size (retained coefficients)");
  parser->F64("eps", &args->eps, "sampling error parameter");
  parser->I32("threads", &args->threads,
              "map-task worker threads (0 = all hardware threads; results "
              "identical for any value)");
  parser->I32("reduce-tasks", &args->reduce_tasks,
              "equi-depth reduce partitions for sorted rounds (0 = match "
              "--threads; identical results)");
  parser->U64("shuffle-buffer-bytes", &args->shuffle_buffer_bytes,
              "bytes of map output a sorted shuffle keeps in memory before "
              "spilling runs to disk (> 0; identical results)");
  parser->Bool("force-sorted-shuffle", &args->force_sorted_shuffle,
               "sorted reducer delivery on every round (routes all algorithms "
               "through the retained-run/spill path)");
  parser->String("failpoints", &args->failpoints,
                 "fault-injection spec, site=action[,site=action...] -- see "
                 "docs/robustness.md (results stay bit-identical; only "
                 "recovery counters change)");
}

BuildOptions BuildArgs::ToBuildOptions(uint64_t seed) const {
  BuildOptions options;
  options.k = static_cast<size_t>(k);
  options.epsilon = eps;
  options.seed = seed;
  options.threads = threads;
  options.reduce_tasks = reduce_tasks;
  options.force_sorted_shuffle = force_sorted_shuffle;
  options.io.shuffle_buffer_bytes = shuffle_buffer_bytes;
  return options;
}

namespace {

int FlagError(const Status& status, const FlagParser& parser) {
  std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
               parser.Help().c_str());
  return 2;
}

}  // namespace

int ServeMain(int argc, char* const* argv, int start) {
  // A client that disconnects mid-response must not kill the server: sends
  // use MSG_NOSIGNAL, and this covers every other pipe-like write.
  std::signal(SIGPIPE, SIG_IGN);

  DataArgs data;
  BuildArgs build;
  std::string snapshot_file;
  int port = 0;
  int workers = 0;
  int max_connections = 0;
  int idle_timeout_ms = 0;
  int drain_timeout_ms = 2000;
  FlagParser parser(
      "wavemr_serve (--snapshot=FILE | --input=FILE | --generate=zipf|"
      "worldcup) [options]");
  parser.String("snapshot", &snapshot_file,
                "serve a saved snapshot file instead of building one");
  parser.I32("port", &port, "TCP port (0 = ephemeral; the bound port is "
                            "printed on startup)");
  parser.I32("workers", &workers,
             "rebuild worker threads (0 = all hardware threads); queries "
             "are answered on the reactor thread");
  parser.I32("max-connections", &max_connections,
             "connection cap; clients past it get an Unavailable reject "
             "frame (0 = unlimited)");
  parser.I32("idle-timeout-ms", &idle_timeout_ms,
             "close connections idle this long; in-flight queries are never "
             "evicted (0 = never)");
  parser.I32("drain-timeout-ms", &drain_timeout_ms,
             "shutdown grace period for delivering in-flight responses");
  RegisterDataFlags(&parser, &data);
  RegisterBuildFlags(&parser, &build);

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

  SnapshotRegistry registry;
  QueryServer::RebuildFn rebuild;

  if (!snapshot_file.empty()) {
    if (!data.input.empty() || !data.generate.empty()) {
      return FlagError(Status::InvalidArgument(
                           "--snapshot excludes --input / --generate"),
                       parser);
    }
    auto snap = HistogramSnapshot::ReadFile(snapshot_file);
    if (!snap.ok()) {
      std::fprintf(stderr, "cannot load snapshot: %s\n",
                   snap.status().ToString().c_str());
      return 1;
    }
    registry.Publish(std::make_shared<HistogramSnapshot>(std::move(*snap)));
    // Rebuild = reload: republishes whatever the file holds now.
    rebuild = [snapshot_file](uint64_t)
        -> StatusOr<std::shared_ptr<const HistogramSnapshot>> {
      auto reloaded = HistogramSnapshot::ReadFile(snapshot_file);
      if (!reloaded.ok()) return reloaded.status();
      return std::shared_ptr<const HistogramSnapshot>(
          std::make_shared<HistogramSnapshot>(std::move(*reloaded)));
    };
  } else {
    auto dataset_or = MakeDataset(data);
    if (!dataset_or.ok()) return FlagError(dataset_or.status(), parser);
    std::shared_ptr<Dataset> dataset = std::move(*dataset_or);
    auto kind = ParseAlgorithmKind(build.algo);
    if (!kind.ok()) return FlagError(kind.status(), parser);
    auto result = BuildWaveletHistogram(*dataset, *kind,
                                        build.ToBuildOptions(data.seed));
    if (!result.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    registry.Publish(
        std::make_shared<HistogramSnapshot>(result->ToSnapshot()));
    // Rebuild = re-run the build with a fresh seed, so sampling algorithms
    // publish a visibly new version while readers keep answering.
    rebuild = [dataset, kind = *kind, build, base_seed = data.seed](
                  uint64_t count)
        -> StatusOr<std::shared_ptr<const HistogramSnapshot>> {
      auto rebuilt = BuildWaveletHistogram(
          *dataset, kind, build.ToBuildOptions(base_seed + count));
      if (!rebuilt.ok()) return rebuilt.status();
      return std::shared_ptr<const HistogramSnapshot>(
          std::make_shared<HistogramSnapshot>(rebuilt->ToSnapshot()));
    };
  }

  // Block the shutdown signals before spawning server threads so they all
  // inherit the mask and sigwait below is the only consumer.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  ServerOptions options;
  options.port = port;
  options.workers = workers;
  options.max_connections = max_connections;
  options.idle_timeout_ms = idle_timeout_ms;
  options.drain_timeout_ms = drain_timeout_ms;
  QueryServer server(&registry, options, std::move(rebuild));
  st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n", st.ToString().c_str());
    return 1;
  }

  {
    SnapshotRegistry::ReadGuard guard = registry.Acquire();
    std::printf("serving %s snapshot: u=%llu terms=%zu version=%llu\n",
                guard->metadata().algorithm.c_str(),
                static_cast<unsigned long long>(guard->domain_size()),
                guard->num_terms(),
                static_cast<unsigned long long>(guard.version()));
  }
  std::printf("wavemr_serve listening on port %d\n", server.port());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);
  std::fprintf(stderr, "signal %d: shutting down after %llu queries\n", sig,
               static_cast<unsigned long long>(server.queries_served()));
  server.Stop();
  return 0;
}

}  // namespace wavemr
