#include "net/wire.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "gen/generators.h"
#include "graph/reorder.h"
#include "light.h"
#include "net/server.h"
#include "pattern/catalog.h"

namespace light::net {
namespace {

TEST(WireTest, RequestRoundTrip) {
  Request req;
  req.id = 77;
  req.edges = {0, 1, 1, 2, 0, 2};
  req.threads = 3;
  req.time_limit_seconds = 0.25;
  req.priority = -2;
  req.unique_subgraphs = false;
  req.induced = true;

  Request back;
  ASSERT_TRUE(Request::Decode(req.Encode(), &back).ok());
  EXPECT_EQ(back.id, 77u);
  EXPECT_EQ(back.edges, req.edges);
  EXPECT_EQ(back.threads, 3);
  EXPECT_DOUBLE_EQ(back.time_limit_seconds, 0.25);
  EXPECT_EQ(back.priority, -2);
  EXPECT_FALSE(back.unique_subgraphs);
  EXPECT_TRUE(back.induced);
}

TEST(WireTest, ResponseRoundTripSanitizesError) {
  Response resp;
  resp.id = 9;
  resp.status = "deadline_exceeded";
  resp.matches = 12345;
  resp.timed_out = true;
  resp.elapsed_seconds = 1.5;
  resp.error = "deadline_exceeded: line one\nline two";
  resp.plan_ns = 11;
  resp.queue_wait_ns = 22;
  resp.execute_ns = 33;
  resp.total_ns = 66;
  resp.plan_cache_hit = true;

  Response back;
  ASSERT_TRUE(Response::Decode(resp.Encode(), &back).ok());
  EXPECT_EQ(back.id, 9u);
  EXPECT_EQ(back.status, "deadline_exceeded");
  EXPECT_EQ(back.matches, 12345u);
  EXPECT_TRUE(back.timed_out);
  EXPECT_DOUBLE_EQ(back.elapsed_seconds, 1.5);
  // Newlines would break the line-oriented payload; encode flattens them.
  EXPECT_EQ(back.error.find('\n'), std::string::npos);
  EXPECT_NE(back.error.find("line one"), std::string::npos);
  EXPECT_EQ(back.plan_ns, 11u);
  EXPECT_EQ(back.queue_wait_ns, 22u);
  EXPECT_EQ(back.execute_ns, 33u);
  EXPECT_EQ(back.total_ns, 66u);
  EXPECT_TRUE(back.plan_cache_hit);
}

TEST(WireTest, DecodeRejectsMalformedPayloads) {
  Request req;
  EXPECT_FALSE(Request::Decode("", &req).ok());
  EXPECT_FALSE(Request::Decode("light.response.v1\nid=1\n", &req).ok());
  EXPECT_FALSE(Request::Decode("light.request.v1\nnot a kv line\n", &req).ok());
  EXPECT_FALSE(Request::Decode("light.request.v1\nid=abc\n", &req).ok());
  // Odd edge list (unpaired vertex).
  EXPECT_FALSE(Request::Decode("light.request.v1\nedges=0 1 2\n", &req).ok());
  // Unknown keys are forward-compatible, not an error.
  EXPECT_TRUE(
      Request::Decode("light.request.v1\nid=4\nfuture_knob=1\n", &req).ok());
  EXPECT_EQ(req.id, 4u);
}

TEST(WireTest, FrameSplitterReassemblesByteByByte) {
  Request req;
  req.id = 5;
  req.edges = {0, 1};
  std::string framed;
  AppendFrame(req.Encode(), &framed);
  AppendFrame(req.Encode(), &framed);

  // Feed one byte at a time: exactly two frames come out, regardless of
  // how the bytes arrive.
  std::string buffer;
  std::string payload;
  int frames = 0;
  for (char c : framed) {
    buffer.push_back(c);
    while (TryExtractFrame(&buffer, &payload) == 1) {
      ++frames;
      Request back;
      EXPECT_TRUE(Request::Decode(payload, &back).ok());
      EXPECT_EQ(back.id, 5u);
    }
  }
  EXPECT_EQ(frames, 2);
  EXPECT_TRUE(buffer.empty());
}

TEST(WireTest, OversizedFrameIsProtocolError) {
  std::string buffer;
  const uint32_t huge = kMaxFrameBytes + 1;
  buffer.push_back(static_cast<char>(huge & 0xff));
  buffer.push_back(static_cast<char>((huge >> 8) & 0xff));
  buffer.push_back(static_cast<char>((huge >> 16) & 0xff));
  buffer.push_back(static_cast<char>((huge >> 24) & 0xff));
  std::string payload;
  EXPECT_EQ(TryExtractFrame(&buffer, &payload), -1);
}

/// Minimal blocking client for the loopback tests: frames one request,
/// reads frames until the matching response appears.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) close(fd_);
  }

  bool connected() const { return connected_; }

  void Send(const Request& req) { SendAll({req}); }

  /// Frames every request into one buffer and writes it in one go, so the
  /// server usually reads them in a single poll round.
  void SendAll(const std::vector<Request>& reqs) {
    std::string framed;
    for (const Request& req : reqs) AppendFrame(req.Encode(), &framed);
    size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = write(fd_, framed.data() + off, framed.size() - off);
      ASSERT_GT(n, 0);
      off += static_cast<size_t>(n);
    }
  }

  bool Recv(Response* out) {
    std::string payload;
    while (true) {
      const int r = TryExtractFrame(&buffer_, &payload);
      if (r == 1) return Response::Decode(payload, out).ok();
      if (r < 0) return false;
      char buf[4096];
      const ssize_t n = read(fd_, buf, sizeof(buf));
      if (n <= 0) return false;
      buffer_.append(buf, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

Request TriangleRequest(uint64_t id) {
  Request req;
  req.id = id;
  req.edges = {0, 1, 1, 2, 0, 2};
  return req;
}

TEST(ServerTest, ServesQueriesOverLoopback) {
  const Graph g = RelabelByDegree(BarabasiAlbertClustered(800, 4, 0.4, 77));
  RunOptions serial;
  serial.threads = 1;
  Pattern triangle;
  ASSERT_TRUE(FindPattern("triangle", &triangle).ok());
  const uint64_t expected = light::Run(g, triangle, serial).num_matches;

  Session session(g, {});
  Server server(&session, {});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // Pipelined: ids echo back so responses match up even out of order.
  client.Send(TriangleRequest(100));
  client.Send(TriangleRequest(200));
  for (int i = 0; i < 2; ++i) {
    Response resp;
    ASSERT_TRUE(client.Recv(&resp));
    EXPECT_TRUE(resp.id == 100 || resp.id == 200);
    EXPECT_EQ(resp.status, "ok");
    EXPECT_EQ(resp.matches, expected);
    EXPECT_GT(resp.total_ns, 0u);
  }

  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_received, 2u);
  EXPECT_EQ(stats.responses_sent, 2u);
  EXPECT_EQ(stats.inflight, 0u);
}

TEST(ServerTest, BadRequestGetsErrorResponseAndConnectionSurvives) {
  const Graph g = RelabelByDegree(BarabasiAlbertClustered(400, 4, 0.4, 78));
  Session session(g, {});
  Server server(&session, {});
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  Request bad;
  bad.id = 7;  // empty edge list
  client.Send(bad);
  Response resp;
  ASSERT_TRUE(client.Recv(&resp));
  EXPECT_EQ(resp.id, 7u);
  EXPECT_EQ(resp.status, "error");
  EXPECT_FALSE(resp.error.empty());

  // Same connection still serves valid queries afterwards.
  client.Send(TriangleRequest(8));
  ASSERT_TRUE(client.Recv(&resp));
  EXPECT_EQ(resp.id, 8u);
  EXPECT_EQ(resp.status, "ok");
  server.Shutdown();
}

TEST(ServerTest, OversizedPatternIsRejectedAndConnectionSurvives) {
  const Graph g = RelabelByDegree(BarabasiAlbertClustered(400, 4, 0.4, 78));
  Session session(g, {});
  Server server(&session, {});
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // An 11-vertex star: planning alone would hold the event loop for about
  // a second, and counting it here would outlast the budget.
  Request star;
  star.id = 21;
  star.time_limit_seconds = 2.0;
  for (uint32_t leaf = 1; leaf <= 10; ++leaf) {
    star.edges.push_back(0);
    star.edges.push_back(leaf);
  }
  client.Send(star);
  Response resp;
  ASSERT_TRUE(client.Recv(&resp));
  EXPECT_EQ(resp.id, 21u);
  EXPECT_EQ(resp.status, "error");
  EXPECT_EQ(resp.error.rfind("bad request:", 0), 0u) << resp.error;
  EXPECT_NE(resp.error.find("out of domain"), std::string::npos) << resp.error;

  client.Send(TriangleRequest(22));
  ASSERT_TRUE(client.Recv(&resp));
  EXPECT_EQ(resp.id, 22u);
  EXPECT_EQ(resp.status, "ok");
  server.Shutdown();
  EXPECT_EQ(session.stats().queries_submitted, 1u);
}

TEST(ServerTest, DisconnectedPatternGetsErrorAndServerKeepsServing) {
  const Graph g = RelabelByDegree(BarabasiAlbertClustered(400, 4, 0.4, 78));
  RunOptions serial;
  serial.threads = 1;
  Pattern triangle;
  ASSERT_TRUE(FindPattern("triangle", &triangle).ok());
  const uint64_t expected = light::Run(g, triangle, serial).num_matches;

  Session session(g, {});
  Server server(&session, {});
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  Request disconnected;
  disconnected.id = 11;
  disconnected.edges = {0, 1, 2, 3};  // two components
  client.Send(disconnected);
  Response resp;
  ASSERT_TRUE(client.Recv(&resp));
  EXPECT_EQ(resp.id, 11u);
  EXPECT_EQ(resp.status, "error");
  EXPECT_NE(resp.error.find("connected"), std::string::npos) << resp.error;

  client.Send(TriangleRequest(12));
  ASSERT_TRUE(client.Recv(&resp));
  EXPECT_EQ(resp.id, 12u);
  EXPECT_EQ(resp.status, "ok");
  EXPECT_EQ(resp.matches, expected);
  server.Shutdown();
}

TEST(ServerTest, DeadlineAndOverloadSurfaceAsStatuses) {
  const Graph g = RelabelByDegree(BarabasiAlbert(20000, 8, /*seed=*/5));
  SessionOptions so;
  so.threads = 1;
  so.max_pending_queries = 1;
  Session session(g, so);
  Server server(&session, {});
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const auto PatternRequest = [](const char* name, uint64_t id) {
    Pattern p;
    EXPECT_TRUE(FindPattern(name, &p).ok());
    Request req;
    req.id = id;
    for (const auto& [u, v] : p.Edges()) {
      req.edges.push_back(static_cast<uint32_t>(u));
      req.edges.push_back(static_cast<uint32_t>(v));
    }
    return req;
  };

  // A microsecond budget can never be met, so the deadline fires
  // deterministically regardless of machine speed or sanitizer slowdown.
  Request dead = PatternRequest("P6", 1);
  dead.time_limit_seconds = 1e-6;
  client.Send(dead);
  Response resp;
  ASSERT_TRUE(client.Recv(&resp));
  EXPECT_EQ(resp.id, 1u);
  EXPECT_EQ(resp.status, "deadline_exceeded");
  EXPECT_TRUE(resp.timed_out);
  EXPECT_EQ(resp.error.rfind("deadline_exceeded:", 0), 0u) << resp.error;

  // Overload needs the only admission slot held while the next query is
  // submitted. Scheduling on a loaded single-core box can delay any one
  // thread by tens of milliseconds, so the slot-holder must run for
  // seconds: house on this graph is ~1.5s single-threaded (longer under
  // sanitizers). The triangle pipelined behind it is rejected immediately,
  // and dropping the connection cancels the holder instead of waiting out
  // its full runtime.
  {
    TestClient holder(server.port());
    ASSERT_TRUE(holder.connected());
    holder.Send(PatternRequest("house", 2));
    holder.Send(TriangleRequest(3));
    ASSERT_TRUE(holder.Recv(&resp));
    EXPECT_EQ(resp.id, 3u);
    EXPECT_EQ(resp.status, "overload_rejected");
    EXPECT_EQ(resp.error.rfind("overload_rejected:", 0), 0u) << resp.error;
  }
  server.Shutdown();
}

TEST(ServerTest, DisconnectCancelsInFlightQueries) {
  const Graph g = RelabelByDegree(BarabasiAlbert(20000, 8, /*seed=*/5));
  SessionOptions so;
  so.threads = 1;
  Session session(g, so);
  Server server(&session, {});
  ASSERT_TRUE(server.Start().ok());

  {
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    Pattern p6;
    ASSERT_TRUE(FindPattern("P6", &p6).ok());
    Request slow;
    slow.id = 1;
    for (const auto& [u, v] : p6.Edges()) {
      slow.edges.push_back(static_cast<uint32_t>(u));
      slow.edges.push_back(static_cast<uint32_t>(v));
    }
    client.Send(slow);
    // Destructor closes the socket with the query still running.
  }
  // Shutdown drains: the orphaned query must be cancelled, not leaked.
  server.Shutdown();
  EXPECT_EQ(server.stats().inflight, 0u);
  const SessionStats st = session.stats();
  EXPECT_EQ(st.queries_submitted, st.queries_completed);
}

TEST(ServerTest, ReusedRequestIdsStillCancelEveryQueryOnDisconnect) {
  const Graph g = RelabelByDegree(BarabasiAlbert(20000, 8, /*seed=*/5));
  SessionOptions so;
  so.threads = 1;
  Session session(g, so);
  Server server(&session, {});
  ASSERT_TRUE(server.Start().ok());

  constexpr uint64_t kLongQueries = 4;
  {
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    // One request id for everything. The disconnected pattern fails
    // before it runs; its completion must retire its own inflight entry,
    // not one of the long queries' entries.
    std::vector<Request> reqs;
    Request bad;
    bad.id = 5;
    bad.edges = {0, 1, 2, 3};
    reqs.push_back(bad);
    Pattern p6;
    ASSERT_TRUE(FindPattern("P6", &p6).ok());
    Request slow;
    slow.id = 5;
    for (const auto& [u, v] : p6.Edges()) {
      slow.edges.push_back(static_cast<uint32_t>(u));
      slow.edges.push_back(static_cast<uint32_t>(v));
    }
    for (uint64_t i = 0; i < kLongQueries; ++i) reqs.push_back(slow);
    client.SendAll(reqs);
    Response resp;
    ASSERT_TRUE(client.Recv(&resp));
    EXPECT_EQ(resp.status, "error");
    EXPECT_NE(resp.error.find("connected"), std::string::npos) << resp.error;
    // Destructor closes the socket with the long queries still in flight.
  }
  // The loop notices the hang-up on its own; Shutdown's cancellations do
  // not count as disconnect cancellations.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server.stats().cancelled_on_disconnect < kLongQueries &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.stats().cancelled_on_disconnect, kLongQueries);
  server.Shutdown();
  EXPECT_EQ(server.stats().inflight, 0u);
}

}  // namespace
}  // namespace light::net
