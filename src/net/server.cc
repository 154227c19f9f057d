#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/types.h"
#include "pattern/pattern.h"

namespace light::net {
namespace {

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(std::string("fcntl: ") + std::strerror(errno));
  }
  return Status::OK();
}

/// Maps a finished query's RunResult onto the wire response for request
/// `req_id`. The status string mirrors QueryOutcome; the error text (with
/// its stable machine-readable prefix) rides along verbatim.
Response MakeResponse(uint64_t req_id, const RunResult& result) {
  Response resp;
  resp.id = req_id;
  switch (result.outcome) {
    case QueryOutcome::kOk:
      resp.status = "ok";
      break;
    case QueryOutcome::kError:
      resp.status = "error";
      break;
    case QueryOutcome::kDeadlineExceeded:
      resp.status = "deadline_exceeded";
      break;
    case QueryOutcome::kOverloadRejected:
      resp.status = "overload_rejected";
      break;
    case QueryOutcome::kCancelled:
      resp.status = "cancelled";
      break;
  }
  resp.matches = result.num_matches;
  resp.timed_out = result.timed_out;
  resp.elapsed_seconds = result.elapsed_seconds;
  resp.error = result.error;
  resp.plan_ns = result.query_stats.plan_ns;
  resp.queue_wait_ns = result.query_stats.queue_wait_ns;
  resp.execute_ns = result.query_stats.execute_ns;
  resp.total_ns = result.query_stats.total_ns;
  resp.plan_cache_hit = result.query_stats.plan_cache_hit;
  return resp;
}

}  // namespace

Server::Server(Session* session, const ServerOptions& options)
    : session_(session), options_(options) {}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad host address: " + options_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string msg = std::string("bind: ") + std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError(msg);
  }
  if (listen(listen_fd_, options_.backlog) < 0) {
    const std::string msg = std::string("listen: ") + std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError(msg);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    const std::string msg = std::string("getsockname: ") + std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError(msg);
  }
  port_ = ntohs(bound.sin_port);

  if (pipe(wake_fds_) < 0) {
    const std::string msg = std::string("pipe: ") + std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError(msg);
  }
  if (Status s = SetNonBlocking(listen_fd_); !s.ok()) return s;
  if (Status s = SetNonBlocking(wake_fds_[0]); !s.ok()) return s;
  if (Status s = SetNonBlocking(wake_fds_[1]); !s.ok()) return s;

  started_ = true;
  stop_.store(false, std::memory_order_release);
  loop_ = std::thread([this] { LoopMain(); });
  return Status::OK();
}

void Server::Shutdown() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  Wake();
  if (loop_.joinable()) loop_.join();
  started_ = false;
  for (int i = 0; i < 2; ++i) {
    if (wake_fds_[i] >= 0) {
      close(wake_fds_[i]);
      wake_fds_[i] = -1;
    }
  }
}

ServerStats Server::stats() const {
  MutexLock lock(stats_mutex_);
  return stats_;
}

void Server::Wake() {
  if (wake_fds_[1] < 0) return;
  const char b = 1;
  // EAGAIN means the pipe already holds unread wake bytes — the loop will
  // wake regardless, so a dropped byte is harmless.
  [[maybe_unused]] const ssize_t n = write(wake_fds_[1], &b, 1);
}

void Server::LoopMain() {
  bool closing = false;
  std::vector<pollfd> fds;
  std::vector<uint64_t> fd_conn;  // conn_id per fds entry (0 for non-conns)
  while (true) {
    if (stop_.load(std::memory_order_acquire) && !closing) {
      closing = true;
      if (listen_fd_ >= 0) {
        close(listen_fd_);
        listen_fd_ = -1;
      }
      // Cancel every in-flight query so the drain below terminates even if
      // clients never disconnect. Cancelled results still flow through the
      // completion queue and are flushed best-effort.
      for (auto& [id, conn] : conns_) {
        for (const auto& [qid, req_id] : conn->inflight) {
          session_->Cancel(qid);
        }
      }
    }

    DrainCompletions();

    if (closing) {
      uint64_t inflight = 0;
      {
        MutexLock lock(stats_mutex_);
        inflight = stats_.inflight;
      }
      if (inflight == 0) {
        // Best-effort flush of queued responses, then close everything.
        for (auto& [id, conn] : conns_) {
          if (!conn->out.empty()) WriteReady(conn.get());
          close(conn->fd);
        }
        conns_.clear();
        return;
      }
    }

    fds.clear();
    fd_conn.clear();
    fds.push_back({wake_fds_[0], POLLIN, 0});
    fd_conn.push_back(0);
    if (listen_fd_ >= 0) {
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_conn.push_back(0);
    }
    for (auto& [id, conn] : conns_) {
      short events = POLLIN;
      if (!conn->out.empty()) events |= POLLOUT;
      fds.push_back({conn->fd, events, 0});
      fd_conn.push_back(id);
    }

    // While draining a shutdown, poll with a timeout as a backstop against
    // a lost wake; otherwise block until traffic arrives.
    const int timeout_ms = closing ? 50 : -1;
    const int n = poll(fds.data(), fds.size(), timeout_ms);
    if (n < 0 && errno != EINTR) return;  // unrecoverable

    std::vector<uint64_t> to_drop;
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (fds[i].fd == wake_fds_[0]) {
        char buf[64];
        while (read(wake_fds_[0], buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      if (listen_fd_ >= 0 && fds[i].fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      const uint64_t conn_id = fd_conn[i];
      const auto it = conns_.find(conn_id);
      if (it == conns_.end()) continue;
      Conn* conn = it->second.get();
      bool alive = true;
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // POLLHUP with pending readable data still delivers POLLIN first
        // on Linux, but a half-closed peer can't receive responses anyway;
        // treat all three as disconnect.
        alive = false;
      }
      if (alive && (fds[i].revents & POLLIN)) {
        alive = ReadReady(conn_id, conn);
      }
      if (alive && (fds[i].revents & POLLOUT)) {
        alive = WriteReady(conn);
      }
      if (!alive) to_drop.push_back(conn_id);
    }
    for (const uint64_t conn_id : to_drop) {
      const auto it = conns_.find(conn_id);
      if (it != conns_.end()) DropConn(conn_id, it->second.get());
    }
  }
}

void Server::AcceptReady() {
  while (true) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: next poll round
    if (!SetNonBlocking(fd).ok()) {
      close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conns_.emplace(next_conn_id_++, std::move(conn));
    MutexLock lock(stats_mutex_);
    ++stats_.connections_accepted;
  }
}

bool Server::ReadReady(uint64_t conn_id, Conn* conn) {
  char buf[16384];
  while (true) {
    const ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->in.append(buf, static_cast<size_t>(n));
      // Reject a sender that outruns frame extraction by more than one
      // max-size frame — it is either malicious or broken.
      if (conn->in.size() > 2 * (kMaxFrameBytes + 4)) {
        MutexLock lock(stats_mutex_);
        ++stats_.protocol_errors;
        return false;
      }
      continue;
    }
    if (n == 0) return false;  // clean EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  if (conn->draining) {
    conn->in.clear();
    return true;
  }
  std::string payload;
  while (true) {
    const int r = TryExtractFrame(&conn->in, &payload);
    if (r == 0) break;
    if (r < 0) {
      MutexLock lock(stats_mutex_);
      ++stats_.protocol_errors;
      return false;
    }
    if (!HandleFrame(conn_id, conn, payload)) return false;
  }
  return true;
}

bool Server::HandleFrame(uint64_t conn_id, Conn* conn,
                         const std::string& payload) {
  {
    MutexLock lock(stats_mutex_);
    ++stats_.requests_received;
  }
  Request req;
  std::string reject;
  if (Status s = Request::Decode(payload, &req); !s.ok()) {
    reject = "bad request: " + s.message();
  } else if (req.edges.empty()) {
    reject = "bad request: empty edge list";
  } else {
    for (size_t i = 0; i + 1 < req.edges.size(); i += 2) {
      const uint32_t u = req.edges[i];
      const uint32_t v = req.edges[i + 1];
      if (u == v || u >= static_cast<uint32_t>(kMaxRequestPatternVertices) ||
          v >= static_cast<uint32_t>(kMaxRequestPatternVertices)) {
        reject = "bad request: edge (" + std::to_string(u) + "," +
                 std::to_string(v) + ") out of domain (patterns have at most " +
                 std::to_string(kMaxRequestPatternVertices) + " vertices)";
        break;
      }
    }
  }
  if (!reject.empty()) {
    Response resp;
    resp.id = req.id;
    resp.status = "error";
    resp.error = reject;
    AppendFrame(resp.Encode(), &conn->out);
    {
      MutexLock lock(stats_mutex_);
      ++stats_.responses_sent;
    }
    return WriteReady(conn);
  }

  int n = 0;
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(req.edges.size() / 2);
  for (size_t i = 0; i + 1 < req.edges.size(); i += 2) {
    const int u = static_cast<int>(req.edges[i]);
    const int v = static_cast<int>(req.edges[i + 1]);
    pairs.emplace_back(u, v);
    n = std::max(n, std::max(u, v) + 1);
  }
  const Pattern pattern = Pattern::FromEdges(n, pairs);

  RunOptions opts;
  opts.threads = req.threads;
  opts.time_limit_seconds = req.time_limit_seconds;
  opts.priority = req.priority;
  opts.unique_subgraphs = req.unique_subgraphs;
  opts.plan_options.induced = req.induced;

  {
    MutexLock lock(stats_mutex_);
    ++stats_.inflight;
  }
  const uint64_t req_id = req.id;
  const uint64_t qid = session_->SubmitAsync(
      pattern, opts, [this, conn_id, req_id](const RunResult& result) {
        {
          MutexLock lock(completions_mutex_);
          completions_.push_back({conn_id, result.query_stats.query_id,
                                  MakeResponse(req_id, result)});
        }
        Wake();
      });
  conn->inflight.emplace(qid, req_id);
  return true;
}

void Server::DrainCompletions() {
  std::vector<Completion> batch;
  {
    MutexLock lock(completions_mutex_);
    batch.swap(completions_);
  }
  if (batch.empty()) return;
  std::vector<uint64_t> to_drop;
  for (auto& [conn_id, query_id, resp] : batch) {
    {
      MutexLock lock(stats_mutex_);
      --stats_.inflight;
    }
    const auto it = conns_.find(conn_id);
    if (it == conns_.end()) continue;  // peer already gone
    Conn* const conn = it->second.get();
    // Request ids are the client's and may repeat; query ids are unique.
    conn->inflight.erase(query_id);
    AppendFrame(resp.Encode(), &conn->out);
    {
      MutexLock lock(stats_mutex_);
      ++stats_.responses_sent;
    }
    if (!WriteReady(conn)) to_drop.push_back(conn_id);
  }
  for (const uint64_t conn_id : to_drop) {
    const auto it = conns_.find(conn_id);
    if (it != conns_.end()) DropConn(conn_id, it->second.get());
  }
}

bool Server::WriteReady(Conn* conn) {
  while (!conn->out.empty()) {
    const ssize_t n = write(conn->fd, conn->out.data(), conn->out.size());
    if (n > 0) {
      conn->out.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void Server::DropConn(uint64_t conn_id, Conn* conn) {
  for (const auto& [qid, req_id] : conn->inflight) {
    if (session_->Cancel(qid)) {
      MutexLock lock(stats_mutex_);
      ++stats_.cancelled_on_disconnect;
    }
  }
  // In-flight queries keep their completion entries; DrainCompletions
  // tolerates the missing connection and still settles the inflight count.
  close(conn->fd);
  conns_.erase(conn_id);
}

}  // namespace light::net
