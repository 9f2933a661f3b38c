#ifndef WAVEMR_PERFBENCH_LOADGEN_H_
#define WAVEMR_PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"

namespace wavemr {
namespace perfbench {

/// One query of the serving mix: 70% point, 25% range, 5% top-k (1..30).
QueryRequest RandomQuery(Rng* rng, uint64_t domain);

struct LoadSpec {
  int port = 0;
  int connections = 4;
  double rate_qps = 40000.0;
  double seconds = 1.0;
  uint64_t seed = 42;
  uint64_t domain = 1;
};

struct SampledQuery {
  QueryRequest request;
  std::string response;  // payload; empty when the query failed
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t recv_ns = 0;
};

struct LoadResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Per query, from its scheduled send time to its response. A failed or
  /// unanswered query counts as the whole window, so it misses every
  /// latency limit.
  std::vector<double> latency_us;
  /// Per sent query: how late the generator sent it.
  std::vector<double> late_us;
  /// Every 1000th query, for answer checks and request spans.
  std::vector<SampledQuery> samples;
};

/// Open-loop load against a QueryServer on 127.0.0.1:port. One generator
/// thread sends queries at Poisson arrival times (rate_qps) round-robin over
/// `connections` sockets, pipelined without waiting for answers; one
/// receiver thread reads the in-order responses. Returns once every query is
/// answered or two seconds after the last one was due.
LoadResult RunOpenLoop(const LoadSpec& spec);

/// The snapshot version the server answered `sample` from; 0 when the
/// response is missing or an error.
uint64_t AnsweredVersion(const SampledQuery& sample);

/// True when `sample`'s response is bit-identical to answering its request
/// in-process (PointEstimate / RangeSum / TopCoefficients) on `snapshot`.
bool AnswerMatches(const SampledQuery& sample,
                   const HistogramSnapshot& snapshot);

}  // namespace perfbench
}  // namespace wavemr

#endif  // WAVEMR_PERFBENCH_LOADGEN_H_
