#include "loadgen.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "serve/estimator.h"
#include "trace.h"

namespace wavemr {
namespace perfbench {

namespace {

// Responses still missing this long after the last scheduled send are
// counted as failed.
constexpr int64_t kGraceNs = 2'000'000'000;
// Every kSampleEvery-th query is kept whole in LoadResult::samples.
constexpr size_t kSampleEvery = 1000;

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A server that stops reading must not hang the generator forever.
  timeval timeout{};
  timeout.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  return fd;
}

bool SendAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n > 0) {
      data += n;
      size -= static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Waits until `due_ns` on the steady clock: sleeps through long gaps, spins
// the last stretch so sends leave within microseconds of their schedule.
void WaitUntil(int64_t due_ns) {
  for (;;) {
    const int64_t left = due_ns - NowNs();
    if (left <= 0) return;
    if (left > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100'000));
    } else {
      CpuRelax();
    }
  }
}

}  // namespace

QueryRequest RandomQuery(Rng* rng, uint64_t domain) {
  QueryRequest q;
  const uint64_t die = rng->NextBounded(100);
  if (die < 70) {
    q.op = QueryOp::kPoint;
    q.point_x = rng->NextBounded(domain);
  } else if (die < 95) {
    q.op = QueryOp::kRange;
    const uint64_t a = rng->NextBounded(domain + 1);
    const uint64_t b = rng->NextBounded(domain + 1);
    q.range_lo = std::min(a, b);
    q.range_hi = std::max(a, b);
  } else {
    q.op = QueryOp::kTopK;
    q.topk_count = static_cast<uint32_t>(1 + rng->NextBounded(30));
  }
  return q;
}

LoadResult RunOpenLoop(const LoadSpec& spec) {
  const size_t conns = static_cast<size_t>(std::max(spec.connections, 1));
  const size_t n = static_cast<size_t>(
      std::max(1.0, std::ceil(spec.rate_qps * spec.seconds)));

  // The whole schedule is drawn and encoded before the clock starts, so the
  // generator loop only waits and sends.
  Rng rng(Mix64(spec.seed ^ 0x6c6f616467656eULL));
  std::vector<QueryRequest> requests(n);
  std::vector<int64_t> offset_ns(n);
  std::vector<size_t> frame_begin(n + 1, 0);
  std::string frames;
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    t += -std::log1p(-rng.NextDouble()) / spec.rate_qps;
    offset_ns[i] = static_cast<int64_t>(t * 1e9);
    requests[i] = RandomQuery(&rng, spec.domain);
    frames += WrapFrame(EncodeRequest(requests[i]));
    frame_begin[i + 1] = frames.size();
  }

  LoadResult result;
  result.attempted = n;
  std::vector<int> fds(conns, -1);
  bool connected = true;
  for (int& fd : fds) {
    fd = ConnectLoopback(spec.port);
    connected = connected && fd >= 0;
  }

  std::vector<int64_t> sent_ns(n, -1);
  std::vector<int64_t> recv_ns(n, 0);
  std::vector<uint8_t> ok(n, 0);
  std::vector<std::string> sampled_payload((n + kSampleEvery - 1) /
                                           kSampleEvery);
  const int64_t start_ns = NowNs() + 2'000'000;
  const int64_t deadline_ns = start_ns + offset_ns[n - 1] + kGraceNs;

  if (connected) {
    std::thread receiver([&] {
      const int ep = ::epoll_create1(EPOLL_CLOEXEC);
      for (size_t c = 0; c < conns; ++c) {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = c;
        ::epoll_ctl(ep, EPOLL_CTL_ADD, fds[c], &ev);
      }
      std::vector<std::string> buf(conns);
      std::vector<size_t> answered(conns, 0);
      size_t received = 0;
      char chunk[65536];
      epoll_event events[8];
      while (received < n && NowNs() < deadline_ns) {
        const int ready = ::epoll_wait(ep, events, 8, 10);
        for (int e = 0; e < ready; ++e) {
          const size_t c = events[e].data.u64;
          bool closed = false;
          for (;;) {
            const ssize_t got =
                ::recv(fds[c], chunk, sizeof(chunk), MSG_DONTWAIT);
            if (got > 0) {
              buf[c].append(chunk, static_cast<size_t>(got));
              continue;
            }
            if (got < 0 && errno == EINTR) continue;
            closed = got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
            break;
          }
          const int64_t now = NowNs();
          size_t off = 0;
          while (buf[c].size() - off >= sizeof(uint32_t)) {
            uint32_t len;
            std::memcpy(&len, buf[c].data() + off, sizeof(len));
            if (buf[c].size() - off - sizeof(len) < len) break;
            const size_t i = c + conns * answered[c]++;
            if (i < n) {
              const char* payload = buf[c].data() + off + sizeof(len);
              recv_ns[i] = now;
              ok[i] = len > 0 && payload[0] == 0;
              if (i % kSampleEvery == 0) {
                sampled_payload[i / kSampleEvery].assign(payload, len);
              }
              ++received;
            }
            off += sizeof(len) + len;
          }
          buf[c].erase(0, off);
          if (closed) ::epoll_ctl(ep, EPOLL_CTL_DEL, fds[c], nullptr);
        }
      }
      ::close(ep);
    });

    for (size_t i = 0; i < n; ++i) {
      WaitUntil(start_ns + offset_ns[i]);
      const int fd = fds[i % conns];
      if (SendAll(fd, frames.data() + frame_begin[i],
                  frame_begin[i + 1] - frame_begin[i])) {
        sent_ns[i] = NowNs();
      }
    }
    receiver.join();
  }
  for (int fd : fds) {
    if (fd >= 0) ::close(fd);
  }

  const double window_us = static_cast<double>(deadline_ns - start_ns) * 1e-3;
  result.latency_us.reserve(n);
  result.late_us.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t due = start_ns + offset_ns[i];
    if (sent_ns[i] >= 0) {
      result.late_us.push_back(static_cast<double>(sent_ns[i] - due) * 1e-3);
    }
    const bool answered = sent_ns[i] >= 0 && recv_ns[i] != 0 && ok[i] != 0;
    if (answered) {
      result.latency_us.push_back(static_cast<double>(recv_ns[i] - due) * 1e-3);
    } else {
      ++result.failed;
      result.latency_us.push_back(window_us);
    }
    if (i % kSampleEvery == 0) {
      std::string response =
          answered ? std::move(sampled_payload[i / kSampleEvery]) : "";
      result.samples.push_back(SampledQuery{requests[i], std::move(response),
                                            due, sent_ns[i], recv_ns[i]});
    }
  }
  return result;
}

uint64_t AnsweredVersion(const SampledQuery& sample) {
  if (sample.response.empty()) return 0;
  if (sample.request.op == QueryOp::kTopK) {
    auto r = DecodeTopKResponse(sample.response);
    return r.ok() ? r->version : 0;
  }
  auto r = DecodeEstimateResponse(sample.response);
  return r.ok() ? r->version : 0;
}

bool AnswerMatches(const SampledQuery& sample,
                   const HistogramSnapshot& snapshot) {
  if (sample.response.empty()) return false;
  const QueryRequest& q = sample.request;
  if (q.op == QueryOp::kTopK) {
    auto got = DecodeTopKResponse(sample.response);
    if (!got.ok()) return false;
    const std::vector<WCoeff> want = snapshot.TopCoefficients(q.topk_count);
    if (got->coefficients.size() != want.size()) return false;
    for (size_t i = 0; i < want.size(); ++i) {
      if (got->coefficients[i].index != want[i].index ||
          std::bit_cast<uint64_t>(got->coefficients[i].value) !=
              std::bit_cast<uint64_t>(want[i].value)) {
        return false;
      }
    }
    return true;
  }
  auto got = DecodeEstimateResponse(sample.response);
  if (!got.ok()) return false;
  const double want = q.op == QueryOp::kPoint
                          ? PointEstimate(snapshot, q.point_x)
                          : RangeSum(snapshot, q.range_lo, q.range_hi);
  return std::bit_cast<uint64_t>(got->estimate) ==
         std::bit_cast<uint64_t>(want);
}

}  // namespace perfbench
}  // namespace wavemr
