#ifndef WAVEMR_SERVE_SERVER_H_
#define WAVEMR_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>

#include "core/status.h"
#include "serve/registry.h"

namespace wavemr {

struct ServerOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (see QueryServer::port).
  int port = 0;
  /// Threads running kRebuild requests; 0 = one per hardware thread. Every
  /// other request is answered on the reactor thread. Unused (no pool is
  /// started) when the server has no rebuild hook.
  int workers = 0;
  /// listen(2) backlog.
  int backlog = 128;
  /// Accepted-connection cap; 0 = unlimited. A client arriving at the cap
  /// gets a best-effort Unavailable reject frame and an immediate close
  /// (load shedding) instead of silently starving in the accept queue.
  int max_connections = 0;
  /// Connections with no request activity for this long are closed by the
  /// reactor; 0 = never. A connection with a rebuild in flight or a
  /// response not yet fully sent is never evicted, however long it takes.
  int idle_timeout_ms = 0;
  /// Stop() grace period: the listener closes immediately, but connections
  /// with a rebuild in flight or unsent responses get this long to receive
  /// them before the hard teardown.
  int drain_timeout_ms = 2000;
};

/// The wavemr_serve engine. One epoll reactor thread owns every socket and
/// answers point, range, top-k and stats requests itself: it decodes each
/// complete frame straight out of the connection's read buffer, pins the
/// current version from the SnapshotRegistry, appends the response to the
/// connection's write buffer, and flushes once per readiness event. These
/// answers take about a microsecond, less than a handoff to another thread.
///
/// Only kRebuild, which runs a whole build, goes to a pool of `workers`
/// threads. While it runs, its connection parses no further input (bytes
/// keep arriving into the read buffer), so responses stay in request
/// order; other connections are served meanwhile. The worker publishes the
/// new snapshot, queues the response and wakes the reactor through an
/// eventfd; the reactor sends it and resumes that connection. Publishing
/// never blocks readers: queries answered mid-swap finish on the version
/// they pinned.
///
/// Linux-only (epoll); Start returns Unimplemented elsewhere.
class QueryServer {
 public:
  /// Rebuild hook for QueryOp::kRebuild: invoked on a pool worker with a
  /// 1-based rebuild counter; the returned snapshot is published. Leave
  /// empty to reject rebuild requests.
  using RebuildFn =
      std::function<StatusOr<std::shared_ptr<const HistogramSnapshot>>(
          uint64_t rebuild_count)>;

  /// The registry must outlive the server. Publish at least one snapshot
  /// before (or after) Start; queries before the first publish get
  /// FailedPrecondition responses.
  QueryServer(SnapshotRegistry* registry, ServerOptions options,
              RebuildFn rebuild = nullptr);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens and starts the reactor and rebuild pool. Non-blocking.
  Status Start();

  /// The bound port (resolves option port 0 after Start).
  int port() const;

  /// Total requests answered (including error responses).
  uint64_t queries_served() const;

  /// Connections rejected at the max_connections cap since Start.
  uint64_t connections_shed() const;

  /// Connections evicted by the idle timeout since Start.
  uint64_t idle_disconnects() const;

  /// Stops accepting, drains (see drain_timeout_ms), closes connections,
  /// joins the reactor and the rebuild pool.
  /// Idempotent; also run by the destructor.
  void Stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace wavemr

#endif  // WAVEMR_SERVE_SERVER_H_
