// Load-generating client for light_server (see README "Serving"): replays
// a trace of patterns over the net/wire.h protocol and reports client-side
// latency quantiles, per-outcome counts, and throughput.
//
// Modes:
//   fixed     closed-loop: one query in flight, trace replayed --repeat
//             times. Clean per-query latency (no queueing delay).
//   open      open-loop at --qps: requests are sent on schedule regardless
//             of responses (pipelined on one connection), so latencies
//             include server-side queueing — the serving-latency view.
//   saturate  keep --window requests outstanding for --duration seconds,
//             cycling the trace: measures saturation throughput.
//
// Trace file: one query per line — a catalog pattern name (P1..P7,
// triangle, k4, ...) or pattern-edges syntax ("0-1,1-2,0-2"), optionally
// followed by key=value tokens: deadline=SEC priority=N threads=K.
// '#' starts a comment.
//
// With --json PATH, one JSONL summary record is appended (consumed by
// ci/snapshot.sh): p50_ns/p99_ns/p999_ns, throughput_qps, outcome counts.
//
// Examples:
//   light_client --port 7461 --trace queries.txt
//   light_client --port 7461 --trace queries.txt --mode open --qps 200
//   light_client --port 7461 --trace queries.txt --mode saturate
//       --duration 10 --window 32 --json client.jsonl

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "flags.h"
#include "light.h"
#include "net/wire.h"
#include "obs/json.h"

namespace {

using light::net::Request;
using light::net::Response;

void Usage() {
  std::fprintf(stderr, R"(light_client: load generator for light_server

  --host ADDR      server address (default 127.0.0.1)
  --port P         server port (required)
  --trace PATH     query trace file (required; see header comment)
  --mode M         fixed (default) | open | saturate
  --repeat N       fixed mode: replay the trace N times (default 1)
  --qps Q          open mode: request rate (default 100)
  --duration SEC   open/saturate: run time (default 5)
  --window W       saturate mode: outstanding requests (default 32)
  --deadline SEC   default per-query deadline (trace deadline= overrides)
  --priority N     default priority (trace priority= overrides)
  --threads K      default per-query thread cap (trace threads= overrides)
  --json PATH      append one JSONL summary record
  --quiet          suppress the per-query lines (summaries still print)
)");
}

using light::tools::FlagSet;
using light::tools::FlagValue;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One parsed trace line: the encoded-ready request minus the id.
struct TraceEntry {
  std::string name;
  std::vector<uint32_t> edges;
  double deadline = 0;
  int priority = 0;
  int threads = 0;
};

bool ParseTrace(const char* path, double default_deadline,
                int default_priority, int default_threads,
                std::vector<TraceEntry>* out) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s\n", path);
    return false;
  }
  char line[1024];
  size_t line_no = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    ++line_no;
    std::string s(line);
    const size_t hash = s.find('#');
    if (hash != std::string::npos) s.resize(hash);
    // Tokenize on whitespace: first token is the pattern, the rest are
    // key=value options.
    std::vector<std::string> tokens;
    size_t pos = 0;
    while (pos < s.size()) {
      while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos])))
        ++pos;
      size_t end = pos;
      while (end < s.size() && !std::isspace(static_cast<unsigned char>(s[end])))
        ++end;
      if (end > pos) tokens.push_back(s.substr(pos, end - pos));
      pos = end;
    }
    if (tokens.empty()) continue;

    TraceEntry entry;
    entry.name = tokens[0];
    entry.deadline = default_deadline;
    entry.priority = default_priority;
    entry.threads = default_threads;
    light::Pattern pattern;
    if (!light::FindPattern(entry.name, &pattern).ok()) {
      if (light::Status st = light::ParsePattern(entry.name, &pattern);
          !st.ok()) {
        std::fprintf(stderr, "error: %s line %zu: %s\n", path, line_no,
                     st.ToString().c_str());
        std::fclose(f);
        return false;
      }
    }
    for (const auto& [u, v] : pattern.Edges()) {
      entry.edges.push_back(static_cast<uint32_t>(u));
      entry.edges.push_back(static_cast<uint32_t>(v));
    }
    for (size_t i = 1; i < tokens.size(); ++i) {
      const std::string& t = tokens[i];
      if (t.rfind("deadline=", 0) == 0) {
        entry.deadline = std::atof(t.c_str() + 9);
      } else if (t.rfind("priority=", 0) == 0) {
        entry.priority = std::atoi(t.c_str() + 9);
      } else if (t.rfind("threads=", 0) == 0) {
        entry.threads = std::atoi(t.c_str() + 8);
      } else {
        std::fprintf(stderr, "error: %s line %zu: unknown option %s\n", path,
                     line_no, t.c_str());
        std::fclose(f);
        return false;
      }
    }
    out->push_back(std::move(entry));
  }
  std::fclose(f);
  if (out->empty()) {
    std::fprintf(stderr, "error: %s lists no queries\n", path);
    return false;
  }
  return true;
}

int Connect(const char* host, int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host, &addr.sin_addr) != 1 ||
      connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

struct Sample {
  uint64_t latency_ns;
  std::string status;
};

uint64_t Quantile(std::vector<uint64_t>* sorted_ns, double q) {
  if (sorted_ns->empty()) return 0;
  const size_t idx = std::min(
      sorted_ns->size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_ns->size())));
  return (*sorted_ns)[idx];
}

}  // namespace

int main(int argc, char** argv) {
  if (argc <= 1 || FlagSet(argc, argv, "--help")) {
    Usage();
    return argc <= 1 ? 1 : 0;
  }
  const char* port_str = FlagValue(argc, argv, "--port");
  const char* trace_path = FlagValue(argc, argv, "--trace");
  if (port_str == nullptr || trace_path == nullptr) {
    Usage();
    return 1;
  }
  const char* host = FlagValue(argc, argv, "--host");
  if (host == nullptr) host = "127.0.0.1";
  const char* mode_str = FlagValue(argc, argv, "--mode");
  const std::string mode = mode_str != nullptr ? mode_str : "fixed";
  if (mode != "fixed" && mode != "open" && mode != "saturate") {
    std::fprintf(stderr, "error: unknown mode %s\n", mode.c_str());
    return 1;
  }
  const char* v = nullptr;
  const int repeat = (v = FlagValue(argc, argv, "--repeat")) ? std::atoi(v) : 1;
  const double qps = (v = FlagValue(argc, argv, "--qps")) ? std::atof(v) : 100;
  const double duration =
      (v = FlagValue(argc, argv, "--duration")) ? std::atof(v) : 5;
  const int window = (v = FlagValue(argc, argv, "--window")) ? std::atoi(v) : 32;
  const double default_deadline =
      (v = FlagValue(argc, argv, "--deadline")) ? std::atof(v) : 0;
  const int default_priority =
      (v = FlagValue(argc, argv, "--priority")) ? std::atoi(v) : 0;
  const int default_threads =
      (v = FlagValue(argc, argv, "--threads")) ? std::atoi(v) : 0;
  const char* json_path = FlagValue(argc, argv, "--json");
  const bool quiet = FlagSet(argc, argv, "--quiet");

  std::vector<TraceEntry> trace;
  if (!ParseTrace(trace_path, default_deadline, default_priority,
                  default_threads, &trace)) {
    return 1;
  }

  const int fd = Connect(host, std::atoi(port_str));
  if (fd < 0) {
    std::fprintf(stderr, "error: cannot connect to %s:%s\n", host, port_str);
    return 1;
  }

  // Shared send/receive machinery: requests are framed into `out_buf` and
  // flushed opportunistically; responses are matched to their send times by
  // the echoed request id.
  std::string out_buf;
  std::string in_buf;
  std::unordered_map<uint64_t, std::pair<uint64_t, size_t>>
      pending;  // id -> (send_ns, trace index)
  uint64_t next_id = 1;
  std::vector<Sample> samples;
  uint64_t ok = 0, deadline_exceeded = 0, overload_rejected = 0, cancelled = 0,
           errors = 0;
  bool io_error = false;

  auto enqueue = [&](size_t trace_idx) {
    const TraceEntry& e = trace[trace_idx];
    Request req;
    req.id = next_id++;
    req.edges = e.edges;
    req.threads = e.threads;
    req.time_limit_seconds = e.deadline;
    req.priority = e.priority;
    pending.emplace(req.id, std::make_pair(NowNs(), trace_idx));
    light::net::AppendFrame(req.Encode(), &out_buf);
  };

  auto flush_some = [&]() -> bool {  // false on connection failure
    while (!out_buf.empty()) {
      const ssize_t n = write(fd, out_buf.data(), out_buf.size());
      if (n > 0) {
        out_buf.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    return true;
  };

  auto on_response = [&](const Response& resp) {
    auto it = pending.find(resp.id);
    if (it == pending.end()) return;
    const uint64_t latency = NowNs() - it->second.first;
    const size_t trace_idx = it->second.second;
    pending.erase(it);
    samples.push_back({latency, resp.status});
    if (resp.status == "ok") ++ok;
    else if (resp.status == "deadline_exceeded") ++deadline_exceeded;
    else if (resp.status == "overload_rejected") ++overload_rejected;
    else if (resp.status == "cancelled") ++cancelled;
    else ++errors;
    if (!quiet) {
      std::printf("%s: %s matches=%llu latency=%.3fms%s%s\n",
                  trace[trace_idx].name.c_str(), resp.status.c_str(),
                  static_cast<unsigned long long>(resp.matches),
                  static_cast<double>(latency) / 1e6,
                  resp.error.empty() ? "" : " error=",
                  resp.error.c_str());
    }
  };

  // Reads whatever is available (blocking until at least one byte unless
  // `nonblock_ok`), then settles every complete frame.
  auto read_some = [&](bool wait) -> bool {
    if (wait) {
      pollfd p{fd, POLLIN, 0};
      if (poll(&p, 1, -1) < 0 && errno != EINTR) return false;
    }
    char buf[16384];
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n == 0) return false;
    if (n < 0) {
      return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    }
    in_buf.append(buf, static_cast<size_t>(n));
    std::string payload;
    int r = 0;
    while ((r = light::net::TryExtractFrame(&in_buf, &payload)) == 1) {
      Response resp;
      if (!Response::Decode(payload, &resp).ok()) return false;
      on_response(resp);
    }
    return r == 0;
  };

  const uint64_t start_ns = NowNs();
  if (mode == "fixed") {
    for (int rep = 0; rep < repeat && !io_error; ++rep) {
      for (size_t i = 0; i < trace.size(); ++i) {
        enqueue(i);
        if (!flush_some()) {
          io_error = true;
          break;
        }
        while (!pending.empty()) {
          if (!read_some(/*wait=*/true)) {
            io_error = true;
            break;
          }
        }
        if (io_error) break;
      }
    }
  } else {
    // Pipelined modes share one poll loop; they differ only in when the
    // next request is due.
    const uint64_t deadline_ns =
        start_ns + static_cast<uint64_t>(duration * 1e9);
    const double gap_ns = qps > 0 ? 1e9 / qps : 0;
    uint64_t next_send_ns = start_ns;
    size_t cursor = 0;
    bool sending = true;
    while (!io_error) {
      const uint64_t now = NowNs();
      if (now >= deadline_ns) sending = false;
      if (!sending && pending.empty()) break;
      if (sending) {
        if (mode == "open") {
          while (NowNs() >= next_send_ns &&
                 next_send_ns < deadline_ns) {
            enqueue(cursor++ % trace.size());
            next_send_ns += static_cast<uint64_t>(gap_ns);
          }
        } else {  // saturate
          while (pending.size() < static_cast<size_t>(window)) {
            enqueue(cursor++ % trace.size());
          }
        }
      }
      if (!flush_some()) {
        io_error = true;
        break;
      }
      int timeout_ms = 50;
      if (mode == "open" && sending) {
        const uint64_t now2 = NowNs();
        timeout_ms = next_send_ns > now2
                         ? static_cast<int>((next_send_ns - now2) / 1000000) + 1
                         : 0;
      }
      pollfd p{fd, static_cast<short>(POLLIN | (out_buf.empty() ? 0 : POLLOUT)),
               0};
      if (poll(&p, 1, timeout_ms) < 0 && errno != EINTR) {
        io_error = true;
        break;
      }
      if (p.revents & POLLIN) {
        if (!read_some(/*wait=*/false)) {
          io_error = true;
          break;
        }
      }
    }
  }
  const double elapsed =
      static_cast<double>(NowNs() - start_ns) / 1e9;
  close(fd);

  std::vector<uint64_t> latencies;
  latencies.reserve(samples.size());
  for (const Sample& s : samples) latencies.push_back(s.latency_ns);
  std::sort(latencies.begin(), latencies.end());
  const uint64_t p50 = Quantile(&latencies, 0.50);
  const uint64_t p99 = Quantile(&latencies, 0.99);
  const uint64_t p999 = Quantile(&latencies, 0.999);
  const double throughput =
      elapsed > 0 ? static_cast<double>(samples.size()) / elapsed : 0;

  std::printf(
      "%s: %zu responses in %.2fs (%.1f qps) ok=%llu deadline_exceeded=%llu "
      "overload_rejected=%llu cancelled=%llu errors=%llu\n",
      mode.c_str(), samples.size(), elapsed, throughput,
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(deadline_exceeded),
      static_cast<unsigned long long>(overload_rejected),
      static_cast<unsigned long long>(cancelled),
      static_cast<unsigned long long>(errors));
  std::printf("latency: p50=%.3fms p99=%.3fms p99.9=%.3fms\n",
              static_cast<double>(p50) / 1e6, static_cast<double>(p99) / 1e6,
              static_cast<double>(p999) / 1e6);
  if (io_error) std::fprintf(stderr, "error: connection failed mid-run\n");

  if (json_path != nullptr) {
    light::obs::JsonWriter w;
    w.BeginObject();
    w.KV("bench", "light_client");
    w.KV("mode", mode);
    w.KV("trace", trace_path);
    w.KV("queries", static_cast<uint64_t>(samples.size()));
    w.KV("elapsed_seconds", elapsed);
    w.KV("throughput_qps", throughput);
    w.KV("p50_ns", p50);
    w.KV("p99_ns", p99);
    w.KV("p999_ns", p999);
    w.KV("ok", ok);
    w.KV("deadline_exceeded", deadline_exceeded);
    w.KV("overload_rejected", overload_rejected);
    w.KV("cancelled", cancelled);
    w.KV("errors", errors);
    w.EndObject();
    std::FILE* f = std::fopen(json_path, "a");
    if (f != nullptr) {
      std::fprintf(f, "%s\n", w.str().c_str());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "cannot append to %s\n", json_path);
      return 1;
    }
  }
  return io_error ? 1 : 0;
}
