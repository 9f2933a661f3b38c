#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/failpoint.h"
#include "core/logging.h"
#include "core/thread_pool.h"
#include "serve/estimator.h"
#include "serve/protocol.h"

#ifdef __linux__
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace wavemr {

#ifdef __linux__

namespace {

uint32_t LoadLe32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

struct QueryServer::Impl {
  /// One client connection. Every field belongs to the reactor thread. A
  /// rebuild worker only holds a reference, which keeps the fd from being
  /// recycled, and hands its response back through `completed`.
  struct Conn {
    explicit Conn(int fd_in) : fd(fd_in) {}
    ~Conn() { ::close(fd); }

    /// No rebuild in flight and every response sent: nothing would be lost
    /// by closing now.
    bool quiescent() const { return !rebuilding && out_off == out.size(); }

    const int fd;
    std::string in;  // received bytes; parsing resumes at in_off
    size_t in_off = 0;
    std::string out;  // encoded responses; sending resumes at out_off
    size_t out_off = 0;
    bool want_write = false;  // EPOLLOUT armed
    bool rebuilding = false;  // a kRebuild is on the pool; parsing paused
    bool closed = false;      // taken off the reactor
    int64_t last_activity_ns = 0;  // NowNs of the last request or rebuild
  };

  /// A finished rebuild's response, waiting for the reactor.
  struct Completion {
    std::shared_ptr<Conn> conn;
    std::string response;
  };

  Impl(SnapshotRegistry* registry_in, ServerOptions options_in,
       RebuildFn rebuild_in)
      : registry(registry_in),
        options(options_in),
        rebuild(std::move(rebuild_in)) {}

  SnapshotRegistry* registry;
  ServerOptions options;
  RebuildFn rebuild;

  int listen_fd = -1;
  int epoll_fd = -1;
  int wake_fd = -1;
  int port = 0;
  std::unique_ptr<ThreadPool> pool;  // rebuild workers; null without a hook
  std::thread reactor;
  std::atomic<bool> running{false};
  std::atomic<bool> stopping{false};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> idle_closed{0};
  std::mutex completed_mu;
  std::vector<Completion> completed;  // guarded by completed_mu
  uint64_t rebuilds = 0;  // reactor-only
  std::unordered_map<int, std::shared_ptr<Conn>> conns;  // reactor-only

  Status Start();
  void Stop();
  void ReactorLoop();
  template <typename Pred>
  void EvictIf(Pred pred);
  void Accept();
  void ReadConn(const std::shared_ptr<Conn>& conn);
  void DiscardInput(const std::shared_ptr<Conn>& conn);
  bool ServeBuffered(const std::shared_ptr<Conn>& conn);
  void StartRebuild(const std::shared_ptr<Conn>& conn);
  void DeliverRebuilds();
  bool Flush(const std::shared_ptr<Conn>& conn);
  void Detach(Conn* conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  std::string Answer(const QueryRequest& request);
};

Status QueryServer::Impl::Start() {
  listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) return Status::IOError("socket(): " + std::string(std::strerror(errno)));
  int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return Status::IOError("bind(port " + std::to_string(options.port) +
                           "): " + std::strerror(errno));
  }
  if (::listen(listen_fd, options.backlog) < 0) {
    return Status::IOError("listen(): " + std::string(std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Status::IOError("getsockname(): " + std::string(std::strerror(errno)));
  }
  port = ntohs(addr.sin_port);

  epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) return Status::IOError("epoll_create1(): " + std::string(std::strerror(errno)));
  wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd < 0) return Status::IOError("eventfd(): " + std::string(std::strerror(errno)));

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev) < 0) {
    return Status::IOError("epoll_ctl(listen): " + std::string(std::strerror(errno)));
  }
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev) < 0) {
    return Status::IOError("epoll_ctl(wake): " + std::string(std::strerror(errno)));
  }

  if (rebuild) pool = std::make_unique<ThreadPool>(options.workers);
  running.store(true);
  reactor = std::thread([this] { ReactorLoop(); });
  return Status::OK();
}

void QueryServer::Impl::ReactorLoop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  bool draining = false;
  std::chrono::steady_clock::time_point drain_deadline{};
  for (;;) {
    if (!draining && stopping.load(std::memory_order_acquire)) {
      // Graceful drain: close the listener immediately, ignore further
      // requests, but let requests already admitted deliver their
      // responses until the deadline.
      draining = true;
      drain_deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(std::max(options.drain_timeout_ms, 0));
      ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
      ::close(listen_fd);
      listen_fd = -1;
    }
    if (draining) {
      EvictIf([](const Conn& conn) { return conn.quiescent(); });
      if (conns.empty() || std::chrono::steady_clock::now() >= drain_deadline) {
        break;
      }
    }
    int timeout_ms = -1;
    if (draining) {
      timeout_ms = 10;
    } else if (options.idle_timeout_ms > 0) {
      // Wake often enough that eviction lands within ~1/4 timeout of due.
      timeout_ms = std::clamp(options.idle_timeout_ms / 4, 10, 1000);
    }
    const int n = ::epoll_wait(epoll_fd, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd) {
        uint64_t drain;
        while (::read(wake_fd, &drain, sizeof(drain)) > 0) {
        }
        // A rebuild finished, or Stop() was called (the stop flag is
        // re-checked at the top of the loop).
        DeliverRebuilds();
        continue;
      }
      if (fd == listen_fd) {
        Accept();
        continue;
      }
      auto it = conns.find(fd);
      if (it == conns.end()) continue;
      std::shared_ptr<Conn> conn = it->second;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseConn(conn);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0 && !Flush(conn)) continue;
      if ((events[i].events & EPOLLIN) != 0) {
        // New requests are not admitted during the drain, but the socket
        // must still be read (to see EOF and to keep level-triggered epoll
        // from spinning on unread bytes).
        if (draining) {
          DiscardInput(conn);
        } else {
          ReadConn(conn);
        }
      }
    }
    if (!draining && options.idle_timeout_ms > 0) {
      const int64_t cutoff =
          NowNs() - static_cast<int64_t>(options.idle_timeout_ms) * 1000000;
      // Only quiescent connections qualify: a rebuild in flight or a
      // half-sent response keeps a connection alive however long it takes.
      EvictIf([&](const Conn& conn) {
        if (!conn.quiescent() || conn.last_activity_ns >= cutoff) return false;
        idle_closed.fetch_add(1, std::memory_order_relaxed);
        return true;
      });
    }
  }
  // Hard teardown: whatever did not drain in time is cut off. A rebuild
  // still running finishes on its worker, and Stop() discards its response.
  EvictIf([](const Conn&) { return true; });
  if (listen_fd >= 0) {
    ::close(listen_fd);
    listen_fd = -1;
  }
}

/// Takes every connection matching `pred` off the reactor.
template <typename Pred>
void QueryServer::Impl::EvictIf(Pred pred) {
  for (auto it = conns.begin(); it != conns.end();) {
    if (pred(*it->second)) {
      Detach(it->second.get());
      it = conns.erase(it);
    } else {
      ++it;
    }
  }
}

void QueryServer::Impl::Accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error; epoll will re-arm
    if (options.max_connections > 0 &&
        conns.size() >= static_cast<size_t>(options.max_connections)) {
      // Load-shed: tell the client why before closing. Best effort -- the
      // frame is tiny, so a single non-blocking send nearly always takes
      // it; a client that cannot receive it just sees the close.
      const std::string frame = WrapFrame(EncodeErrorResponse(
          Status::Unavailable("server at max_connections=" +
                              std::to_string(options.max_connections) +
                              "; retry later")));
      (void)::send(fd, frame.data(), frame.size(),
                   MSG_NOSIGNAL | MSG_DONTWAIT);
      ::close(fd);
      shed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>(fd);
    conn->last_activity_ns = NowNs();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) continue;
    conns.emplace(fd, std::move(conn));
  }
}

/// Takes `conn` off the reactor. The fd closes with the last reference,
/// which an in-flight rebuild may still hold.
void QueryServer::Impl::Detach(Conn* conn) {
  conn->closed = true;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::shutdown(conn->fd, SHUT_RDWR);
}

void QueryServer::Impl::CloseConn(const std::shared_ptr<Conn>& conn) {
  Detach(conn.get());
  conns.erase(conn->fd);
}

/// Drain-phase read handler: consumes and discards socket input so that a
/// level-triggered EPOLLIN cannot spin, and closes on EOF/hard error.
void QueryServer::Impl::DiscardInput(const std::shared_ptr<Conn>& conn) {
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    CloseConn(conn);  // EOF or hard error
    return;
  }
}

void QueryServer::Impl::ReadConn(const std::shared_ptr<Conn>& conn) {
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->in.append(buf, static_cast<size_t>(n));
      // A short read emptied the socket; level-triggered epoll reports
      // whatever arrives next, so skip the recv that would say EAGAIN.
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConn(conn);  // EOF or hard error
    return;
  }
  conn->last_activity_ns = NowNs();
  if (ServeBuffered(conn)) Flush(conn);
}

/// Answers the complete frames buffered on `conn`, in order, into its
/// output buffer. Stops at a partial frame or at a kRebuild, which goes to
/// the pool; frames behind it wait in `in` until DeliverRebuilds resumes
/// here. Returns false if an oversized frame closed the connection.
bool QueryServer::Impl::ServeBuffered(const std::shared_ptr<Conn>& conn) {
  std::string& in = conn->in;
  while (!conn->rebuilding && in.size() - conn->in_off >= sizeof(uint32_t)) {
    const uint32_t len = LoadLe32(in.data() + conn->in_off);
    if (len > kMaxFramePayloadBytes) {
      CloseConn(conn);  // protocol violation
      return false;
    }
    if (in.size() - conn->in_off < sizeof(uint32_t) + len) break;
    const std::string_view payload(in.data() + conn->in_off + sizeof(uint32_t),
                                   len);
    conn->in_off += sizeof(uint32_t) + len;
    queries.fetch_add(1, std::memory_order_relaxed);
    StatusOr<QueryRequest> request = DecodeRequest(payload);
    if (!request.ok()) {
      AppendFrame(&conn->out, EncodeErrorResponse(request.status()));
    } else if (request->op == QueryOp::kRebuild && pool != nullptr) {
      StartRebuild(conn);
    } else {
      AppendFrame(&conn->out, Answer(*request));
    }
  }
  if (conn->in_off == in.size()) {
    in.clear();
    conn->in_off = 0;
  } else if (conn->in_off > size_t{64} * 1024) {
    in.erase(0, conn->in_off);
    conn->in_off = 0;
  }
  return true;
}

void QueryServer::Impl::StartRebuild(const std::shared_ptr<Conn>& conn) {
  conn->rebuilding = true;
  const uint64_t count = ++rebuilds;
  pool->Submit([this, conn, count] {
    std::string response;
    try {
      auto snapshot = rebuild(count);
      response = snapshot.ok() ? EncodeRebuildResponse(
                                     registry->Publish(std::move(*snapshot)))
                               : EncodeErrorResponse(snapshot.status());
    } catch (const std::exception& e) {
      // Without a response the connection would stay paused for good.
      response = EncodeErrorResponse(
          Status::Internal(std::string("rebuild failed: ") + e.what()));
    }
    {
      std::lock_guard<std::mutex> lock(completed_mu);
      completed.push_back({conn, std::move(response)});
    }
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd, &one, sizeof(one));
  });
}

/// Queues each finished rebuild's response behind the responses already
/// waiting on its connection, then resumes parsing that connection.
void QueryServer::Impl::DeliverRebuilds() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completed_mu);
    batch.swap(completed);
  }
  for (Completion& done : batch) {
    Conn& conn = *done.conn;
    conn.rebuilding = false;
    if (conn.closed) continue;
    AppendFrame(&conn.out, done.response);
    conn.last_activity_ns = NowNs();
    if (ServeBuffered(done.conn)) Flush(done.conn);
  }
}

std::string QueryServer::Impl::Answer(const QueryRequest& request) {
  if (request.op == QueryOp::kRebuild) {
    return EncodeErrorResponse(Status::Unimplemented(
        "this server was given no rebuild hook (serving a fixed snapshot)"));
  }
  SnapshotRegistry::ReadGuard guard = registry->Acquire();
  if (!guard) {
    return EncodeErrorResponse(
        Status::FailedPrecondition("no snapshot published yet"));
  }
  const HistogramSnapshot& snap = *guard;
  switch (request.op) {
    case QueryOp::kPoint:
      if (request.point_x >= snap.domain_size()) {
        return EncodeErrorResponse(Status::OutOfRange(
            "point " + std::to_string(request.point_x) +
            " outside domain [0, " + std::to_string(snap.domain_size()) + ")"));
      }
      return EncodeEstimateResponse(PointEstimate(snap, request.point_x),
                                    guard.version());
    case QueryOp::kRange:
      if (request.range_lo > request.range_hi ||
          request.range_hi > snap.domain_size()) {
        return EncodeErrorResponse(Status::OutOfRange(
            "range [" + std::to_string(request.range_lo) + ", " +
            std::to_string(request.range_hi) + ") not within [0, " +
            std::to_string(snap.domain_size()) + ")"));
      }
      return EncodeEstimateResponse(
          RangeSum(snap, request.range_lo, request.range_hi), guard.version());
    case QueryOp::kTopK:
      return EncodeTopKResponse(snap.TopCoefficients(request.topk_count),
                                guard.version());
    case QueryOp::kStats: {
      ServeStats st;
      st.version = guard.version();
      st.snapshots_published = registry->current_version();
      st.domain_size = snap.domain_size();
      st.num_terms = snap.num_terms();
      st.queries_served = queries.load(std::memory_order_relaxed);
      st.algorithm = snap.metadata().algorithm;
      st.build_comm_bytes = snap.metadata().build_comm_bytes;
      st.build_sim_seconds = snap.metadata().build_sim_seconds;
      st.connections_shed = shed.load(std::memory_order_relaxed);
      st.idle_disconnects = idle_closed.load(std::memory_order_relaxed);
      return EncodeStatsResponse(st);
    }
    case QueryOp::kRebuild:
      break;  // handled above
  }
  return EncodeErrorResponse(Status::Internal("unreachable op"));
}

/// Sends as much of conn->out as the socket takes and arms EPOLLOUT for the
/// rest. A send error closes this connection only; returns false then.
bool QueryServer::Impl::Flush(const std::shared_ptr<Conn>& conn) {
  while (conn->out_off < conn->out.size()) {
    ssize_t n;
    if (const int fe = FailpointHit("serve.send"); fe != 0) {
      errno = fe;
      n = -1;
    } else {
      n = ::send(conn->fd, conn->out.data() + conn->out_off,
                 conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    }
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT;
        ev.data.fd = conn->fd;
        ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
        conn->want_write = true;
      }
      return true;
    }
    CloseConn(conn);
    return false;
  }
  conn->out.clear();
  conn->out_off = 0;
  if (conn->want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn->fd;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
    conn->want_write = false;
  }
  return true;
}

void QueryServer::Impl::Stop() {
  if (!running.load()) return;
  stopping.store(true, std::memory_order_release);
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd, &one, sizeof(one));
  if (reactor.joinable()) reactor.join();
  pool.reset();        // waits for rebuilds still running
  completed.clear();   // their responses have no reactor left to send them
  if (epoll_fd >= 0) ::close(epoll_fd);
  if (wake_fd >= 0) ::close(wake_fd);
  epoll_fd = -1;
  wake_fd = -1;
  running.store(false);
}

#else  // !__linux__

struct QueryServer::Impl {
  Impl(SnapshotRegistry* registry_in, ServerOptions options_in,
       RebuildFn rebuild_in)
      : registry(registry_in),
        options(options_in),
        rebuild(std::move(rebuild_in)) {}
  SnapshotRegistry* registry;
  ServerOptions options;
  RebuildFn rebuild;
  int port = 0;
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> idle_closed{0};

  Status Start() {
    return Status::Unimplemented("wavemr_serve requires Linux epoll");
  }
  void Stop() {}
};

#endif  // __linux__

QueryServer::QueryServer(SnapshotRegistry* registry, ServerOptions options,
                         RebuildFn rebuild)
    : impl_(std::make_unique<Impl>(registry, options, std::move(rebuild))) {
  WAVEMR_CHECK(registry != nullptr);
}

QueryServer::~QueryServer() { impl_->Stop(); }

Status QueryServer::Start() { return impl_->Start(); }

int QueryServer::port() const { return impl_->port; }

uint64_t QueryServer::queries_served() const {
  return impl_->queries.load(std::memory_order_relaxed);
}

uint64_t QueryServer::connections_shed() const {
  return impl_->shed.load(std::memory_order_relaxed);
}

uint64_t QueryServer::idle_disconnects() const {
  return impl_->idle_closed.load(std::memory_order_relaxed);
}

void QueryServer::Stop() { impl_->Stop(); }

}  // namespace wavemr
