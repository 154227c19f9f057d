#ifndef LIGHT_NET_SERVER_H_
#define LIGHT_NET_SERVER_H_

/// Single-machine async serving layer in front of light::Session: a
/// poll()-driven event loop (one thread) speaking the length-prefixed
/// protocol of net/wire.h over TCP. Requests submit through
/// Session::SubmitAsync, so the loop thread never blocks on query
/// execution; completions land on a queue the loop drains via a wake pipe.
/// Per-query deadlines and priorities ride the session's machinery; a
/// client disconnect cancels that connection's in-flight queries.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/lock_ranks.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "light.h"
#include "net/wire.h"

namespace light::net {

/// Largest pattern a request may carry, in vertices (ids 0..8). Planning
/// runs on the event loop, outside any query deadline, and its cost grows
/// factorially with the pattern's symmetry: on a 500-vertex graph and a
/// 4-vCPU Xeon VM, a 10-vertex clique plans in ~0.7 s and an 11-vertex
/// star in ~0.8 s, about 10x per added vertex (9 vertices: <0.1 s). Larger
/// patterns get a `bad request: ... out of domain` error.
constexpr int kMaxRequestPatternVertices = 9;
static_assert(kMaxRequestPatternVertices <= kMaxPatternVertices);

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;
  int backlog = 64;
};

/// Point-in-time serving counters (see Server::stats()).
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t requests_received = 0;
  uint64_t responses_sent = 0;
  uint64_t protocol_errors = 0;
  uint64_t cancelled_on_disconnect = 0;
  /// Queries submitted to the session and not yet answered.
  uint64_t inflight = 0;
};

class Server {
 public:
  /// The session (and its graph) must outlive the server.
  Server(Session* session, const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds + listens + starts the event-loop thread. On success port()
  /// returns the bound port (resolves ephemeral 0).
  Status Start();

  int port() const { return port_; }

  /// Stops accepting, cancels every in-flight query, waits for their
  /// results to drain, flushes what can be flushed, closes all
  /// connections, and joins the loop thread. Idempotent; also run by the
  /// destructor.
  void Shutdown();

  ServerStats stats() const LIGHT_EXCLUDES(stats_mutex_);

 private:
  struct Conn {
    int fd = -1;
    std::string in;      // bytes read, not yet framed
    std::string out;     // encoded frames not yet written
    /// Session query ids in flight for this connection (cancelled if the
    /// peer disconnects).
    std::unordered_map<uint64_t, uint64_t> inflight;  // query_id -> req id
    bool draining = false;  // protocol error: flush out, accept no more
  };

  void LoopMain();
  void AcceptReady();
  bool ReadReady(uint64_t conn_id, Conn* conn);   // false: drop conn
  bool WriteReady(Conn* conn);                    // false: drop conn
  bool HandleFrame(uint64_t conn_id, Conn* conn, const std::string& payload);
  void DrainCompletions() LIGHT_EXCLUDES(completions_mutex_);
  void DropConn(uint64_t conn_id, Conn* conn);
  void Wake();

  Session* session_;
  const ServerOptions options_;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};
  int port_ = 0;
  std::thread loop_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  uint64_t next_conn_id_ = 1;  // loop thread only
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;

  /// Completions from session callbacks (any thread) to the loop. Ranked
  /// above every session lock: callbacks run with SessionQueryState::mutex
  /// held, so the session side must be acquirable first.
  Mutex completions_mutex_{lockrank::kNetCompletions,
                           "net::Server::completions_mutex_"};
  struct Completion {
    uint64_t conn_id;
    uint64_t query_id;  // the session query id keying Conn::inflight
    Response resp;
  };
  std::vector<Completion> completions_ LIGHT_GUARDED_BY(completions_mutex_);

  mutable Mutex stats_mutex_{lockrank::kNetStats,
                             "net::Server::stats_mutex_"};
  ServerStats stats_ LIGHT_GUARDED_BY(stats_mutex_);
};

}  // namespace light::net

#endif  // LIGHT_NET_SERVER_H_
