// serve_hot / serve_cold: the real light_server over loopback, driven by
// one load-generator thread (open loop at fixed rates and a closed loop
// with a fixed window, in rounds), every response checked against a
// threads=1 reference computed after the server has stopped.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "inputs.h"
#include "light.h"
#include "net/wire.h"
#include "pattern/catalog.h"
#include "probes.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

// The timed phases run in rounds; each round also repeats the set-up on
// throw-away servers, so every phase and the set-up sample the whole run
// rather than one stretch of machine noise.
constexpr int kRounds = 10;
constexpr int kSetupRepsPerRound = 2;
// Share of a round's time given to each open-loop phase; the rest goes to
// the set-ups and the closed loop, which run for a fixed amount of work.
constexpr double kOpenShare = 0.4;
constexpr double kDrainSeconds = 30;
constexpr int kProbeKey = -1;  // the set-up probe: a single edge
constexpr int kWarmupKey = -2;  // serve_cold's fixed warm-up shapes: -2..-6

// ---------------------------------------------------------------------------
// The server process.
// ---------------------------------------------------------------------------

struct ServerProc {
  pid_t pid = -1;
  int out_fd = -1;  // the server's stdout
  int port = 0;
};

bool SpawnServer(const std::string& binary, const std::vector<std::string>& args,
                 const std::string& log_path, ServerProc* out) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    // The server must not outlive perf_driver, even if perf_driver dies.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(pipe_fds[1], 1);
    const int log_fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                            0644);
    if (log_fd >= 0) dup2(log_fd, 2);
    close(pipe_fds[0]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(pipe_fds[1]);
  out->pid = pid;
  out->out_fd = pipe_fds[0];
  // Wait for "listening on PORT".
  std::string line;
  const uint64_t deadline = NowNs() + 60'000'000'000ULL;
  while (NowNs() < deadline) {
    pollfd p{out->out_fd, POLLIN, 0};
    if (poll(&p, 1, 100) <= 0) continue;
    char c = 0;
    if (read(out->out_fd, &c, 1) != 1) break;
    if (c != '\n') {
      line += c;
      continue;
    }
    if (line.rfind("listening on ", 0) == 0) {
      out->port = std::atoi(line.c_str() + 13);
      return out->port > 0;
    }
    line.clear();
  }
  return false;
}

// SIGTERM, wait (SIGKILL after a grace period), and check the graceful
// exit: status 0 and no open queries.
bool StopServer(ServerProc* s) {
  if (s->pid <= 0) return true;
  kill(s->pid, SIGTERM);
  int status = 0;
  const uint64_t deadline = NowNs() + 20'000'000'000ULL;
  bool exited = false;
  while (NowNs() < deadline) {
    if (waitpid(s->pid, &status, WNOHANG) == s->pid) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!exited) {
    kill(s->pid, SIGKILL);
    waitpid(s->pid, &status, 0);
  }
  std::string rest;
  char buf[4096];
  ssize_t n = 0;
  while ((n = read(s->out_fd, buf, sizeof(buf))) > 0) rest.append(buf, n);
  close(s->out_fd);
  s->pid = -1;
  const bool ok = exited && WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                  rest.find("open_queries=0") != std::string::npos;
  if (!ok) std::fprintf(stderr, "server did not shut down cleanly\n");
  return ok;
}

// ---------------------------------------------------------------------------
// The load generator's connections.
// ---------------------------------------------------------------------------

class Client {
 public:
  using OnResponse =
      std::function<void(const light::net::Response&, uint64_t recv_ns)>;

  ~Client() { Close(); }

  bool Connect(int port, int nconn) {
    for (int i = 0; i < nconn; ++i) {
      const int fd = socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return false;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        close(fd);
        return false;
      }
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
      conns_.push_back({fd, {}, {}});
    }
    return true;
  }

  void Close() {
    for (Conn& c : conns_) close(c.fd);
    conns_.clear();
  }

  // Queues one request on the next connection (round robin) and writes as
  // much as the socket takes.
  bool Send(uint64_t id, const StreamRequest& r) {
    light::net::Request req;
    req.id = id;
    req.edges = FlatEdges(r.pattern);
    req.threads = 1;
    req.unique_subgraphs = r.unique;
    req.induced = r.induced;
    Conn& c = conns_[next_++ % conns_.size()];
    light::net::AppendFrame(req.Encode(), &c.out);
    return Flush(&c);
  }

  // Services the connections until `deadline_ns` (or until `stop` returns
  // true after a response). Returns false on a connection failure.
  bool PollUntil(uint64_t deadline_ns, const OnResponse& on_response,
                 const std::function<bool()>& stop = nullptr) {
    std::vector<pollfd> fds(conns_.size());
    for (;;) {
      const uint64_t now = NowNs();
      if (now >= deadline_ns) return true;
      for (size_t i = 0; i < conns_.size(); ++i) {
        fds[i] = {conns_[i].fd,
                  static_cast<short>(POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT)),
                  0};
      }
      const uint64_t wait = deadline_ns - now;
      timespec ts{static_cast<time_t>(wait / 1'000'000'000ULL),
                  static_cast<long>(wait % 1'000'000'000ULL)};
      const int n = ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (n < 0 && errno != EINTR) return false;
      if (n <= 0) continue;
      const uint64_t recv_ns = NowNs();
      bool got = false;
      for (size_t i = 0; i < conns_.size(); ++i) {
        Conn& c = conns_[i];
        if (fds[i].revents & POLLOUT) {
          if (!Flush(&c)) return false;
        }
        if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
          char buf[65536];
          const ssize_t r = read(c.fd, buf, sizeof(buf));
          if (r == 0) return false;
          if (r < 0) {
            if (errno == EAGAIN || errno == EINTR) continue;
            return false;
          }
          c.in.append(buf, static_cast<size_t>(r));
          std::string payload;
          int f = 0;
          while ((f = light::net::TryExtractFrame(&c.in, &payload)) == 1) {
            light::net::Response resp;
            if (!light::net::Response::Decode(payload, &resp).ok()) {
              return false;
            }
            on_response(resp, recv_ns);
            got = true;
          }
          if (f < 0) return false;
        }
      }
      if (got && stop && stop()) return true;
    }
  }

 private:
  struct Conn {
    int fd;
    std::string in;
    std::string out;
  };

  static bool Flush(Conn* c) {
    while (!c->out.empty()) {
      const ssize_t w = write(c->fd, c->out.data(), c->out.size());
      if (w < 0) return errno == EAGAIN || errno == EINTR;
      c->out.erase(0, static_cast<size_t>(w));
    }
    return true;
  }

  std::vector<Conn> conns_;
  size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// One pass: set-up, then the timed phases against one server instance.
// ---------------------------------------------------------------------------

enum Phase { kSetup = 0, kLow, kMid, kSat, kNumPhases };
const char* const kPhaseNames[] = {"setup", "low", "mid", "sat"};

struct Record {
  int phase = 0;
  int key = 0;
  const StreamRequest* req = nullptr;
  uint64_t due_ns = 0, sent_ns = 0, recv_ns = 0;
  bool done = false;
  light::net::Response resp;
};

struct ServeConfig {
  std::string server;
  std::string dir;
  std::string work;
  std::string workload;
  double seconds = 0;
  double low_qps = 0, mid_qps = 0;
  int window = 0;
  int sat_requests = 0;
  int conns = 0;
  int workers = 0;
};

class Pass {
 public:
  Pass(const ServeConfig& cfg, const std::vector<StreamRequest>& stream,
       bool traced, double seconds, SpanRecorder* spans)
      : cfg_(cfg), stream_(stream), traced_(traced), seconds_(seconds),
        spans_(spans) {
    probe_.key = kProbeKey;
    probe_.pattern = light::Pattern::FromEdges(2, {{0, 1}});
    // Warm-up set: the first plans. serve_hot: one request of every mix
    // shape. serve_cold: five fixed shapes outside its universe (whose
    // plans are never warm).
    if (cfg_.workload == "serve_hot") {
      std::map<int, const StreamRequest*> first;
      for (const StreamRequest& r : stream_) first.emplace(r.key, &r);
      for (auto& [key, r] : first) warmup_.push_back(r);
    } else {
      for (const char* name : {"triangle", "P1", "P2", "P3", "P4"}) {
        StreamRequest r;
        r.key = kWarmupKey - static_cast<int>(fixed_warmup_.size());
        light::FindPattern(name, &r.pattern);
        fixed_warmup_.push_back(r);
      }
      for (const StreamRequest& r : fixed_warmup_) warmup_.push_back(&r);
    }
  }

  ~Pass() {
    client_.reset();
    if (server_.pid > 0) StopServer(&server_);
  }

  bool Run() {
    const auto fail = [](const char* step) {
      std::fprintf(stderr, "error: %s phase did not complete\n", step);
      return false;
    };
    // The first set-up starts the server of the timed phases.
    if (!SetupOnce(traced_)) return fail("setup");
    const double open_s = kOpenShare * seconds_ / kRounds;
    for (int round = 0; round < kRounds; ++round) {
      if (!ExtraSetups()) return fail("setup");
      const uint64_t f0 = MinorFaults(server_.pid);
      if (!OpenLoop(kLow, cfg_.low_qps, open_s)) return fail("low");
      low_faults_ += MinorFaults(server_.pid) - f0;
      if (!OpenLoop(kMid, cfg_.mid_qps, open_s)) return fail("mid");
      if (!ClosedLoop(cfg_.sat_requests)) return fail("sat");
    }
    peak_rss_mb_ = PeakRssMb(server_.pid);
    client_.reset();
    clean_exit_ = StopServer(&server_);
    return true;
  }

  std::string ToJson() const {
    Json j;
    j.Num("traced", traced_ ? 1 : 0);
    j.Arr("setup_s", setup_s_);
    j.Num("census_s", census_s_);
    j.Num("peak_rss_mb", peak_rss_mb_);
    j.Num("clean_exit", clean_exit_ ? 1 : 0);
    int low_n = 0;
    for (const Record& r : records_) low_n += r.phase == kLow;
    j.Num("minflt_per_query",
          static_cast<double>(low_faults_) / std::max(1, low_n));
    j.Num("sat_completions", sat_completions_);
    j.Num("sat_seconds", sat_seconds_);
    for (int p = kLow; p <= kMid; ++p) {
      const std::string n = kPhaseNames[p];
      j.Num(n + ".backlog_end", backlog_end_[p]);
      j.Num(n + ".inflight_first", inflight_first_[p]);
      j.Num(n + ".inflight_last", inflight_last_[p]);
    }
    // Per-request columns, one set per phase.
    for (int p = 0; p < kNumPhases; ++p) {
      std::vector<double> lat, rtt, late, total, plan, queue, exec, hit, ok;
      for (const Record& r : records_) {
        if (r.phase != p) continue;
        lat.push_back(Ms(r.recv_ns - r.due_ns));
        rtt.push_back(Ms(r.recv_ns - r.sent_ns));
        late.push_back(Ms(r.sent_ns - r.due_ns));
        total.push_back(Ms(r.resp.total_ns));
        plan.push_back(Ms(r.resp.plan_ns));
        queue.push_back(Ms(r.resp.queue_wait_ns));
        exec.push_back(Ms(r.resp.execute_ns));
        hit.push_back(r.resp.plan_cache_hit ? 1 : 0);
        ok.push_back(r.done && r.resp.status == "ok" ? 1 : 0);
      }
      const std::string n = std::string(kPhaseNames[p]) + ".";
      j.Arr(n + "lat_ms", lat).Arr(n + "rtt_ms", rtt).Arr(n + "late_ms", late);
      j.Arr(n + "total_ms", total).Arr(n + "plan_ms", plan);
      j.Arr(n + "queue_ms", queue).Arr(n + "exec_ms", exec);
      j.Arr(n + "hit", hit).Arr(n + "ok", ok);
    }
    return j.Done();
  }

  const std::vector<Record>& records() const { return records_; }

 private:
  std::vector<std::string> ServerArgs(bool with_report) const {
    std::vector<std::string> a = {"--graph-store", cfg_.dir + "/graph.lcsr2",
                                  "--store-mode",  "mmap",
                                  "--threads",     std::to_string(cfg_.workers),
                                  "--port",        "0"};
    if (with_report) {
      a.push_back("--session-report");
      a.push_back(cfg_.work + "/session_report.json");
    }
    return a;
  }

  // One set-up: spawn -> every warm-up query answered, one at a time.
  bool SetupOnce(bool with_report) {
    const int64_t root = spans_->Begin("setup");
    const uint64_t t0 = NowNs();
    {
      ScopedSpan span(spans_, "server.spawn", root);
      if (!SpawnServer(cfg_.server, ServerArgs(with_report),
                       cfg_.work + "/server.log", &server_)) {
        std::fprintf(stderr, "error: light_server did not start\n");
        return false;
      }
    }
    {
      ScopedSpan span(spans_, "warmup", root);
      client_ = std::make_unique<Client>();
      if (!client_->Connect(server_.port, cfg_.conns)) return false;
      if (!Sequential(kSetup, {&probe_})) return false;
      if (!Sequential(kSetup, warmup_)) return false;
    }
    setup_s_.push_back(Seconds(NowNs() - t0));
    spans_->End(root);
    return true;
  }

  // More set-ups, on throw-away servers while the main one idles.
  bool ExtraSetups() {
    const ServerProc main = server_;
    std::unique_ptr<Client> main_client = std::move(client_);
    bool ok = true;
    for (int rep = 0; rep < kSetupRepsPerRound && ok; ++rep) {
      server_ = ServerProc();
      ok = SetupOnce(false);
      client_.reset();
      ok = StopServer(&server_) && ok;
    }
    server_ = main;
    client_ = std::move(main_client);
    return ok;
  }

  void Dispatch(int phase, const StreamRequest* req, uint64_t due_ns) {
    const uint64_t id = records_.size();
    Record r;
    r.phase = phase;
    r.key = req->key;
    r.req = req;
    r.due_ns = due_ns;
    r.sent_ns = NowNs();
    if (r.due_ns == 0) r.due_ns = r.sent_ns;
    records_.push_back(r);
    ++outstanding_;
    if (!client_->Send(id, *req)) send_failed_ = true;
  }

  void OnResponse(const light::net::Response& resp, uint64_t recv_ns) {
    if (resp.id >= records_.size() || records_[resp.id].done) return;
    Record& r = records_[resp.id];
    r.done = true;
    r.recv_ns = recv_ns;
    r.resp = resp;
    --outstanding_;
    if (spans_->enabled()) {
      const auto req_id = static_cast<int64_t>(resp.id);
      const int64_t client = spans_->Add("net.request", r.sent_ns, recv_ns,
                                         -1, req_id);
      const uint64_t rtt = recv_ns - r.sent_ns;
      const uint64_t total = std::min<uint64_t>(resp.total_ns, rtt);
      const uint64_t server_end = recv_ns - (rtt - total) / 2;
      const int64_t server = spans_->Add("facade.session", server_end - total,
                                         server_end, client, req_id);
      uint64_t at = server_end - total;
      for (auto [name, ns] :
           {std::pair{"plan.resolve", resp.plan_ns},
            std::pair{"parallel.queue_wait", resp.queue_wait_ns},
            std::pair{"engine.execute", resp.execute_ns}}) {
        const uint64_t d = std::min<uint64_t>(ns, server_end - at);
        spans_->Add(name, at, at + d, server, req_id);
        at += d;
      }
    }
  }

  bool Drain() {
    const uint64_t deadline =
        NowNs() + static_cast<uint64_t>(kDrainSeconds * 1e9);
    if (!client_->PollUntil(
            deadline, [this](const auto& r, uint64_t t) { OnResponse(r, t); },
            [this] { return outstanding_ == 0; })) {
      return false;
    }
    return outstanding_ == 0 && !send_failed_;
  }

  bool Sequential(int phase, const std::vector<const StreamRequest*>& reqs) {
    for (const StreamRequest* r : reqs) {
      Dispatch(phase, r, 0);
      if (!Drain()) return false;
    }
    return true;
  }

  const StreamRequest* Next() {
    return &stream_[cursor_++ % stream_.size()];
  }

  // Open loop: evenly spaced arrivals at `qps` for `seconds`; latency counts
  // from each request's due time. The backlog figures average over rounds.
  bool OpenLoop(int phase, double qps, double seconds) {
    std::vector<uint64_t> due;
    const uint64_t t0 = NowNs() + 1'000'000;  // 1 ms to arm the schedule
    const auto n = static_cast<size_t>(seconds * qps);
    for (size_t k = 0; k < n; ++k) {
      due.push_back(t0 +
                    static_cast<uint64_t>(static_cast<double>(k) / qps * 1e9));
    }
    const auto on = [this](const auto& r, uint64_t ts) { OnResponse(r, ts); };
    std::vector<int> inflight;  // sampled at each send
    size_t i = 0;
    while (i < due.size()) {
      while (i < due.size() && due[i] <= NowNs()) {
        inflight.push_back(outstanding_);
        Dispatch(phase, Next(), due[i++]);
      }
      if (i < due.size() && !client_->PollUntil(due[i], on)) return false;
    }
    backlog_end_[phase] = std::max(backlog_end_[phase], outstanding_);
    const size_t q = std::max<size_t>(1, inflight.size() / 4);
    double first = 0, last = 0;
    for (size_t k = 0; k < q && k < inflight.size(); ++k) {
      first += inflight[k];
      last += inflight[inflight.size() - 1 - k];
    }
    inflight_first_[phase] += first / static_cast<double>(q) / kRounds;
    inflight_last_[phase] += last / static_cast<double>(q) / kRounds;
    return Drain();
  }

  // Closed loop over `n` requests with a fixed outstanding window. The
  // list's wall time adds to census_s; the completions between the
  // window-th and the (n - window)-th response, which leaves out ramp-up
  // and drain, count toward sat_qps.
  bool ClosedLoop(int n) {
    const int w = std::min(cfg_.window, n / 3);
    int sent = 0;
    std::vector<uint64_t> done_ns;
    const uint64_t t0 = NowNs();
    for (; sent < w; ++sent) Dispatch(kSat, Next(), 0);
    const auto on = [&](const light::net::Response& r, uint64_t ts) {
      OnResponse(r, ts);
      done_ns.push_back(ts);
      if (sent < n) {
        Dispatch(kSat, Next(), 0);
        ++sent;
      }
    };
    const uint64_t deadline =
        NowNs() + static_cast<uint64_t>(kDrainSeconds * 1e9);
    const auto all_done = [this] { return outstanding_ == 0; };
    if (!client_->PollUntil(deadline, on, all_done) || outstanding_ != 0 ||
        send_failed_ ||
        done_ns.size() != static_cast<size_t>(n)) {
      return false;
    }
    census_s_ += Seconds(done_ns.back() - t0);
    sat_completions_ += n - 2 * w;
    sat_seconds_ += Seconds(done_ns[static_cast<size_t>(n - w - 1)] -
                            done_ns[static_cast<size_t>(w - 1)]);
    return true;
  }

  const ServeConfig& cfg_;
  const std::vector<StreamRequest>& stream_;
  const bool traced_;
  const double seconds_;
  SpanRecorder* spans_;

  StreamRequest probe_;
  std::vector<StreamRequest> fixed_warmup_;
  std::vector<const StreamRequest*> warmup_;
  ServerProc server_;
  std::unique_ptr<Client> client_;
  std::vector<Record> records_;
  int outstanding_ = 0;
  bool send_failed_ = false;
  size_t cursor_ = 0;

  std::vector<double> setup_s_;
  double census_s_ = 0;
  double peak_rss_mb_ = 0;
  bool clean_exit_ = false;
  uint64_t low_faults_ = 0;
  double sat_seconds_ = 0;
  int sat_completions_ = 0;
  int backlog_end_[kNumPhases] = {};
  double inflight_first_[kNumPhases] = {};
  double inflight_last_[kNumPhases] = {};
};

// Expected count for every request key that occurs in `passes`: one
// threads=1 Run per key, on a heap copy of the snapshot, across nproc
// threads. Runs after every server has stopped.
std::map<int, uint64_t> ReferenceCounts(
    const std::string& snapshot,
    const std::vector<std::unique_ptr<Pass>>& passes, int nproc,
    bool* ok) {
  std::map<int, const StreamRequest*> reps;
  for (const auto& p : passes) {
    for (const Record& r : p->records()) reps.emplace(r.key, r.req);
  }
  std::vector<std::pair<int, const StreamRequest*>> todo(reps.begin(),
                                                         reps.end());
  std::shared_ptr<const light::GraphStore> store;
  light::GraphStore::OpenOptions opts;
  opts.mode = light::GraphStore::Mode::kHeap;
  if (!light::GraphStore::Open(snapshot, opts, &store).ok()) {
    *ok = false;
    return {};
  }
  std::vector<uint64_t> counts(todo.size());
  std::atomic<size_t> next{0};
  std::atomic<bool> all_ok{true};
  std::vector<std::thread> workers;
  for (int t = 0; t < nproc; ++t) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < todo.size(); i = next++) {
        light::RunOptions ro;
        ro.threads = 1;
        ro.unique_subgraphs = todo[i].second->unique;
        ro.plan_options.induced = todo[i].second->induced;
        const light::RunResult r =
            light::Run(*store->graph(), todo[i].second->pattern, ro);
        if (!r.ok() || r.timed_out) all_ok = false;
        counts[i] = r.num_matches;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  *ok = all_ok;
  std::map<int, uint64_t> out;
  for (size_t i = 0; i < todo.size(); ++i) out[todo[i].first] = counts[i];
  return out;
}

// In-process replay of the first `n` stream requests through a Session
// configured like the server, with a RunReport per query (engine,
// intersect and worker counters the wire does not carry).
std::string Replay(const std::string& snapshot,
                   const std::vector<StreamRequest>& stream, int n,
                   int workers) {
  std::shared_ptr<const light::GraphStore> store;
  light::GraphStore::OpenOptions opts;
  opts.mode = light::GraphStore::Mode::kMmap;
  if (!light::GraphStore::Open(snapshot, opts, &store).ok()) return "[]";
  light::SessionOptions so;
  so.threads = workers;
  light::Session session(store, so);
  std::string out = "[";
  for (int i = 0; i < n && i < static_cast<int>(stream.size()); ++i) {
    const StreamRequest& r = stream[static_cast<size_t>(i)];
    light::RunOptions ro;
    ro.threads = 1;
    ro.unique_subgraphs = r.unique;
    ro.plan_options.induced = r.induced;
    light::obs::RunReport report;
    ro.report = &report;
    const uint64_t t0 = NowNs();
    const light::RunResult res = session.Submit(r.pattern, ro).Wait();
    const double wall = Ms(NowNs() - t0);
    out += (i > 0 ? "," : "") + QueryRecordJson(res, &report, wall, 1);
  }
  return out + "]";
}

}  // namespace

int RunServe(const Flags& flags) {
  ServeConfig cfg;
  cfg.server = flags.Get("server");
  cfg.dir = flags.Get("dir");
  cfg.work = flags.Get("work", cfg.dir);
  cfg.workload = flags.Get("workload");
  cfg.seconds = flags.Need("seconds");
  cfg.low_qps = flags.Need("low-qps");
  cfg.mid_qps = flags.Need("mid-qps");
  cfg.window = static_cast<int>(flags.Need("window"));
  cfg.sat_requests = static_cast<int>(flags.Need("sat-requests"));
  const int nproc = HardwareThreads();
  cfg.conns = std::min(4, nproc);
  cfg.workers = std::max(1, nproc - 1);
  const bool trace = flags.Need("trace") != 0;
  const int replay = static_cast<int>(flags.Need("replay"));

  std::vector<StreamRequest> stream;
  if (!LoadStream(cfg.dir + "/requests.txt", &stream)) {
    std::fprintf(stderr, "error: cannot read the request stream\n");
    return 1;
  }

  SpanRecorder spans(trace);
  std::vector<std::unique_ptr<Pass>> passes;
  const int npasses = trace ? 2 : 1;
  for (int p = 0; p < npasses; ++p) {
    const bool traced = trace && p == 1;
    static SpanRecorder off(false);
    passes.push_back(std::make_unique<Pass>(cfg, stream, traced,
                                            cfg.seconds / npasses,
                                            traced ? &spans : &off));
    if (!passes.back()->Run()) {
      std::fprintf(stderr, "error: %s pass failed\n", cfg.workload.c_str());
      return 1;
    }
  }

  // Correctness gate, outside the timed phases.
  bool ref_ok = false;
  const std::map<int, uint64_t> expected =
      ReferenceCounts(cfg.dir + "/graph.lcsr2", passes, nproc, &ref_ok);
  if (!ref_ok) {
    std::fprintf(stderr, "error: reference runs failed\n");
    return 1;
  }
  int attempted = 0, failed = 0, wrong = 0;
  for (const auto& p : passes) {
    for (const Record& r : p->records()) {
      ++attempted;
      if (!r.done || r.resp.status != "ok") {
        ++failed;
        std::fprintf(stderr, "request failed: %s %s\n", r.resp.status.c_str(),
                     r.resp.error.c_str());
      } else if (r.resp.matches != expected.at(r.key)) {
        ++failed;
        ++wrong;
        std::fprintf(stderr, "wrong count for key %d: got %llu want %llu\n",
                     r.key, static_cast<unsigned long long>(r.resp.matches),
                     static_cast<unsigned long long>(expected.at(r.key)));
      }
    }
  }

  Json out;
  out.Str("workload", cfg.workload);
  out.Num("threads", nproc);
  out.Num("attempted", attempted);
  out.Num("failed", failed);
  out.Num("wrong", wrong);
  std::string pj = "[";
  for (size_t i = 0; i < passes.size(); ++i) {
    pj += (i > 0 ? "," : "") + passes[i]->ToJson();
  }
  out.Raw("passes", pj + "]");
  if (trace) {
    out.Raw("replay", Replay(cfg.dir + "/graph.lcsr2", stream,
                             replay,
                             cfg.workers));
    std::map<int, ProbeQuery> distinct;
    for (const StreamRequest& r : stream) {
      if (distinct.size() >= 100) break;
      distinct.emplace(r.key, ProbeQuery{r.pattern, r.unique, r.induced});
    }
    std::vector<ProbeQuery> queries;
    for (auto& [key, q] : distinct) queries.push_back(q);
    out.Raw("layers", RunLayerProbes({cfg.dir + "/graph.lcsr2"},
                                     light::GraphStore::Mode::kMmap, queries,
                                     &spans));
    out.Str("session_report", cfg.work + "/session_report.json");
    if (!WriteFile(flags.Get("spans"), Json::SpansJson(spans.Take()))) {
      return 1;
    }
  }
  return WriteFile(flags.Get("out"), out.Done()) ? 0 : 1;
}

}  // namespace perfbench
