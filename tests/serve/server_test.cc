#include "serve/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <future>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "serve/client.h"
#include "serve/estimator.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"
#include "wavelet/haar.h"
#include "wavelet/topk.h"

namespace wavemr {
namespace {

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

std::shared_ptr<const HistogramSnapshot> MakeSnapshot(uint64_t u, size_t k,
                                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(u);
  for (double& x : v) x = 100.0 * rng.NextDouble();
  v[2] = 800.0;
  std::vector<double> w = ForwardHaar(v);
  std::vector<WCoeff> coeffs;
  for (uint64_t i = 0; i < u; ++i) {
    if (w[i] != 0.0) coeffs.push_back({i, w[i]});
  }
  SnapshotMetadata meta;
  meta.algorithm = "test-fixture";
  return std::make_shared<const HistogramSnapshot>(
      HistogramSnapshot::FromCoefficients(u, TopKByMagnitude(coeffs, k), meta));
}

// A bare TCP connection for tests that need control over how request bytes
// are split across writes (ServeClient always sends one whole frame).
class RawConn {
 public:
  explicit RawConn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  bool Send(const std::string& bytes) {
    return ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  /// The payload of the next response frame; empty on EOF or error.
  std::string ReadFrame() {
    char prefix[sizeof(uint32_t)];
    if (!ReadExactly(prefix, sizeof(prefix))) return {};
    uint32_t len;
    std::memcpy(&len, prefix, sizeof(len));
    std::string payload(len, '\0');
    if (!ReadExactly(payload.data(), len)) return {};
    return payload;
  }

 private:
  bool ReadExactly(char* out, size_t n) {
    while (n > 0) {
      const ssize_t got = ::recv(fd_, out, n, 0);
      if (got <= 0) return false;
      out += got;
      n -= static_cast<size_t>(got);
    }
    return true;
  }

  int fd_ = -1;
};

std::string Frame(QueryOp op, uint64_t a = 0, uint64_t b = 0) {
  QueryRequest request;
  request.op = op;
  request.point_x = a;
  request.range_lo = a;
  request.range_hi = b;
  request.topk_count = static_cast<uint32_t>(a);
  return WrapFrame(EncodeRequest(request));
}

class QueryServerTest : public ::testing::Test {
 protected:
  // Starts a server on an ephemeral port and connects one client.
  void StartAndConnect(QueryServer::RebuildFn rebuild = nullptr) {
    ServerOptions options;
    options.port = 0;
    options.workers = 2;
    server_ = std::make_unique<QueryServer>(&registry_, options,
                                            std::move(rebuild));
    Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
    ASSERT_GT(server_->port(), 0);
    Status connected = client_.Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(connected.ok()) << connected.ToString();
  }

  SnapshotRegistry registry_;
  std::unique_ptr<QueryServer> server_;
  ServeClient client_;
};

TEST_F(QueryServerTest, ServedEstimatesBitIdenticalToLocal) {
  auto snap = MakeSnapshot(64, 12, 3);
  registry_.Publish(snap);
  StartAndConnect();

  for (uint64_t x = 0; x < snap->domain_size(); x += 5) {
    auto r = client_.Point(x);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Bits(r->estimate), Bits(PointEstimate(*snap, x))) << "x=" << x;
    EXPECT_EQ(r->version, 1u);
  }
  for (uint64_t lo : {0ul, 7ul, 31ul}) {
    auto r = client_.Range(lo, 64);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Bits(r->estimate), Bits(RangeSum(*snap, lo, 64)));
  }
  auto top = client_.TopK(5);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  std::vector<WCoeff> want = snap->TopCoefficients(5);
  ASSERT_EQ(top->coefficients.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(top->coefficients[i], want[i]);
  }
}

TEST_F(QueryServerTest, StatsReportSnapshotAndCounters) {
  registry_.Publish(MakeSnapshot(32, 8, 9));
  StartAndConnect();
  ASSERT_TRUE(client_.Point(0).ok());
  auto stats = client_.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->version, 1u);
  EXPECT_EQ(stats->snapshots_published, 1u);
  EXPECT_EQ(stats->domain_size, 32u);
  EXPECT_EQ(stats->num_terms, 8u);
  EXPECT_EQ(stats->algorithm, "test-fixture");
  // The stats request itself is counted, so >= the point query + this one.
  EXPECT_GE(stats->queries_served, 2u);
}

TEST_F(QueryServerTest, ErrorsComeBackAsStatuses) {
  registry_.Publish(MakeSnapshot(16, 4, 1));
  StartAndConnect();
  auto oob = client_.Point(16);
  ASSERT_FALSE(oob.ok());
  EXPECT_EQ(oob.status().code(), StatusCode::kOutOfRange);
  auto bad_range = client_.Range(9, 3);
  ASSERT_FALSE(bad_range.ok());
  EXPECT_EQ(bad_range.status().code(), StatusCode::kOutOfRange);
  auto no_rebuild = client_.Rebuild();
  ASSERT_FALSE(no_rebuild.ok());
  EXPECT_EQ(no_rebuild.status().code(), StatusCode::kUnimplemented);
  // The connection survives error responses.
  EXPECT_TRUE(client_.Point(0).ok());
}

TEST_F(QueryServerTest, QueriesBeforeFirstPublishFailCleanly) {
  StartAndConnect();
  auto r = client_.Point(0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  // Publishing makes the same connection start answering.
  registry_.Publish(MakeSnapshot(16, 4, 2));
  EXPECT_TRUE(client_.Point(0).ok());
}

TEST_F(QueryServerTest, RebuildPublishesNewVersion) {
  registry_.Publish(MakeSnapshot(32, 8, 1));
  std::atomic<uint64_t> calls{0};
  StartAndConnect([&](uint64_t count)
                      -> StatusOr<std::shared_ptr<const HistogramSnapshot>> {
    calls.store(count);
    return MakeSnapshot(32, 8, 100 + count);
  });
  auto v = client_.Rebuild();
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, 2u);
  EXPECT_EQ(calls.load(), 1u);
  EXPECT_EQ(registry_.current_version(), 2u);
  auto stats = client_.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->version, 2u);
  EXPECT_EQ(stats->snapshots_published, 2u);
}

TEST_F(QueryServerTest, ManyRequestsOnOneConnectionAnswerInOrder) {
  auto snap = MakeSnapshot(128, 20, 7);
  registry_.Publish(snap);
  StartAndConnect();
  // The blocking client already enforces request/response pairing; what this
  // checks is that a long run of back-to-back frames never desynchronizes.
  for (int i = 0; i < 500; ++i) {
    uint64_t x = static_cast<uint64_t>(i) % snap->domain_size();
    auto r = client_.Point(x);
    ASSERT_TRUE(r.ok()) << "i=" << i << ": " << r.status().ToString();
    ASSERT_EQ(Bits(r->estimate), Bits(PointEstimate(*snap, x))) << "i=" << i;
  }
  EXPECT_GE(server_->queries_served(), 500u);
}

TEST_F(QueryServerTest, ConcurrentClientsWithRebuildsStayConsistent) {
  registry_.Publish(MakeSnapshot(64, 12, 1));
  StartAndConnect([&](uint64_t count)
                      -> StatusOr<std::shared_ptr<const HistogramSnapshot>> {
    return MakeSnapshot(64, 12, 1000 + count);
  });
  const int port = server_->port();

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 100;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ServeClient client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kQueriesPerClient; ++i) {
        if (i % 25 == 0 && c == 0) {
          if (!client.Rebuild().ok()) failures.fetch_add(1);
          continue;
        }
        auto r = client.Point(static_cast<uint64_t>(i) % 64);
        if (!r.ok() || r->version == 0) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server_->queries_served(),
            static_cast<uint64_t>(kClients * kQueriesPerClient));
}

TEST_F(QueryServerTest, PipelinedFramesAnswerInOrderAcrossRebuild) {
  auto v1 = MakeSnapshot(64, 12, 3);
  registry_.Publish(v1);
  StartAndConnect([&](uint64_t count)
                      -> StatusOr<std::shared_ptr<const HistogramSnapshot>> {
    // Long enough that the frames behind the rebuild are surely buffered.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return MakeSnapshot(64, 12, 100 + count);
  });
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());

  // One write carries six whole frames and the head of a seventh.
  const std::string last = Frame(QueryOp::kPoint, 9);
  const std::string batch =
      Frame(QueryOp::kPoint, 3) + Frame(QueryOp::kRebuild) +
      Frame(QueryOp::kPoint, 3) + WrapFrame(std::string(1, '\x7f')) +
      Frame(QueryOp::kTopK, 4) + Frame(QueryOp::kStats) + last.substr(0, 6);
  ASSERT_TRUE(conn.Send(batch));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(conn.Send(last.substr(6)));

  auto before = DecodeEstimateResponse(conn.ReadFrame());
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->version, 1u);
  EXPECT_EQ(Bits(before->estimate), Bits(PointEstimate(*v1, 3)));

  auto rebuilt = DecodeRebuildResponse(conn.ReadFrame());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(*rebuilt, 2u);
  SnapshotRegistry::ReadGuard v2 = registry_.Acquire();
  ASSERT_EQ(v2.version(), 2u);

  auto after = DecodeEstimateResponse(conn.ReadFrame());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->version, 2u);
  EXPECT_EQ(Bits(after->estimate), Bits(PointEstimate(*v2, 3)));

  auto malformed = DecodeEstimateResponse(conn.ReadFrame());
  ASSERT_FALSE(malformed.ok());
  EXPECT_EQ(malformed.status().code(), StatusCode::kInvalidArgument);

  auto top = DecodeTopKResponse(conn.ReadFrame());
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ(top->version, 2u);
  EXPECT_EQ(top->coefficients, v2->TopCoefficients(4));

  auto stats = DecodeStatsResponse(conn.ReadFrame());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->version, 2u);
  EXPECT_EQ(stats->queries_served, 6u);

  auto split = DecodeEstimateResponse(conn.ReadFrame());
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_EQ(split->version, 2u);
  EXPECT_EQ(Bits(split->estimate), Bits(PointEstimate(*v2, 9)));
}

TEST_F(QueryServerTest, QueriesAreNotQueuedBehindARebuild) {
  registry_.Publish(MakeSnapshot(64, 12, 1));
  std::latch release(1);
  std::atomic<bool> rebuild_started{false};
  ServerOptions options;
  options.workers = 1;
  server_ = std::make_unique<QueryServer>(
      &registry_, options,
      [&](uint64_t count) -> StatusOr<std::shared_ptr<const HistogramSnapshot>> {
        rebuild_started.store(true);
        release.wait();
        return MakeSnapshot(64, 12, 100 + count);
      });
  ASSERT_TRUE(server_->Start().ok());

  ServeClient admin;
  ASSERT_TRUE(admin.Connect("127.0.0.1", server_->port()).ok());
  auto rebuild = std::async(std::launch::async, [&] { return admin.Rebuild(); });
  while (!rebuild_started.load()) std::this_thread::yield();

  // The only worker is stuck in the rebuild; a point query on another
  // connection must still be answered, from the old version.
  ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port()).ok());
  auto point = std::async(std::launch::async, [&] { return client_.Point(5); });
  const bool answered =
      point.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  release.count_down();
  ASSERT_TRUE(answered) << "point query waited for the rebuild";
  auto r = point.get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->version, 1u);

  auto v = rebuild.get();
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, 2u);
}

TEST_F(QueryServerTest, StopIsIdempotentAndDropsClients) {
  registry_.Publish(MakeSnapshot(16, 4, 5));
  StartAndConnect();
  ASSERT_TRUE(client_.Point(1).ok());
  server_->Stop();
  server_->Stop();
  auto r = client_.Point(1);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace wavemr
