// Network serving front end: loads a graph, opens a light::Session, and
// serves subgraph-counting queries over the length-prefixed protocol of
// net/wire.h (see README "Serving"). Pairs with light_client.
//
// Examples:
//   light_server --dataset yt_s --port 7461
//   light_server --graph edges.txt --port 0 --threads 8 --max-pending 32
//   light_server --graph-store snap.lcsr2 --store-mode mmap --port 0

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "flags.h"
#include "gen/catalog.h"
#include "light.h"
#include "net/server.h"
#include "storage/graph_store.h"

namespace {

void Usage() {
  std::fprintf(stderr, R"(light_server: subgraph-counting query server (LIGHT, ICDE 2019 reproduction)

  --dataset NAME     synthetic catalog graph (yt_s eu_s lj_s ot_s uk_s fs_s)
  --scale S          scale factor for --dataset (default 1.0)
  --graph PATH       load an edge-list file instead of a catalog graph
  --graph-store PATH serve a CSR snapshot through the storage engine
                     (.lcsr2 for mmap; heap mode also accepts edge lists)
  --store-mode MODE  heap | mmap (default) — how --graph-store opens
  --host ADDR        bind address (default 127.0.0.1)
  --port P           TCP port; 0 (default) binds an ephemeral port
  --threads K        session worker threads (default: all cores)
  --max-pending N    admission limit: reject queries past N concurrently
                     open ones with overload_rejected (default: unlimited)
  --stuck-window SEC enable the stuck-query watchdog with this window
  --session-report PATH
                     write a light.session_report.v1 JSON on shutdown

Prints "listening on PORT" once serving. SIGINT/SIGTERM shuts down
gracefully: stop accepting, cancel in-flight queries, drain, then print
session + server stats (open_queries must reach 0).
)");
}

using light::tools::FlagSet;
using light::tools::FlagValue;

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace light;
  if (argc <= 1 || FlagSet(argc, argv, "--help")) {
    Usage();
    return argc <= 1 ? 1 : 0;
  }

  const char* dataset = FlagValue(argc, argv, "--dataset");
  const char* graph_path = FlagValue(argc, argv, "--graph");
  const char* store_path = FlagValue(argc, argv, "--graph-store");
  if (dataset == nullptr && graph_path == nullptr && store_path == nullptr) {
    Usage();
    return 1;
  }

  // Either a GraphStore (the storage engine: heap/mmap over one snapshot
  // format) or a plain in-memory graph. Both end up behind the
  // same Session seam.
  std::shared_ptr<const GraphStore> store;
  Graph graph;
  if (store_path != nullptr) {
    GraphStore::OpenOptions store_options;
    if (const char* v = FlagValue(argc, argv, "--store-mode")) {
      if (!GraphStore::ParseMode(v, &store_options.mode)) {
        std::fprintf(stderr,
                     "error: unknown --store-mode '%s' (expected heap or "
                     "mmap)\n",
                     v);
        return 1;
      }
    }
    if (Status s = GraphStore::Open(store_path, store_options, &store);
        !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "store: mode=%s %u vertices, %llu edges\n",
                 GraphStore::ModeName(store->mode()), store->NumVertices(),
                 static_cast<unsigned long long>(store->NumEdges()));
  } else if (graph_path != nullptr) {
    Graph raw;
    if (Status s = LoadAuto(graph_path, &raw); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    graph = RelabelByDegree(raw);
  } else {
    const char* scale_str = FlagValue(argc, argv, "--scale");
    const double scale = scale_str != nullptr ? std::atof(scale_str) : 1.0;
    if (Status s = MakeCatalogGraph(dataset, scale, &graph); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (store == nullptr) {
    std::fprintf(stderr, "graph: %u vertices, %llu edges\n",
                 graph.NumVertices(),
                 static_cast<unsigned long long>(graph.NumEdges()));
  }

  SessionOptions session_options;
  if (const char* v = FlagValue(argc, argv, "--threads")) {
    session_options.threads = std::atoi(v);
  }
  if (const char* v = FlagValue(argc, argv, "--max-pending")) {
    session_options.max_pending_queries = std::atoi(v);
  }
  if (const char* v = FlagValue(argc, argv, "--stuck-window")) {
    session_options.stuck_query_window_seconds = std::atof(v);
  }
  Session session = store != nullptr
                        ? Session(std::move(store), session_options)
                        : Session(graph, session_options);

  net::ServerOptions server_options;
  if (const char* v = FlagValue(argc, argv, "--host")) server_options.host = v;
  if (const char* v = FlagValue(argc, argv, "--port")) {
    server_options.port = std::atoi(v);
  }
  net::Server server(&session, server_options);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  // Scripted callers parse this line for the resolved ephemeral port.
  std::printf("listening on %d\n", server.port());
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "shutting down...\n");
  server.Shutdown();

  const net::ServerStats ss = server.stats();
  const SessionStats st = session.stats();
  std::printf(
      "server: connections=%llu requests=%llu responses=%llu "
      "protocol_errors=%llu cancelled_on_disconnect=%llu open_queries=%llu\n",
      static_cast<unsigned long long>(ss.connections_accepted),
      static_cast<unsigned long long>(ss.requests_received),
      static_cast<unsigned long long>(ss.responses_sent),
      static_cast<unsigned long long>(ss.protocol_errors),
      static_cast<unsigned long long>(ss.cancelled_on_disconnect),
      static_cast<unsigned long long>(ss.inflight));
  std::printf(
      "session: submitted=%llu completed=%llu deadline_exceeded=%llu "
      "overload_rejected=%llu cancelled=%llu plan_cache hits=%llu "
      "misses=%llu\n",
      static_cast<unsigned long long>(st.queries_submitted),
      static_cast<unsigned long long>(st.queries_completed),
      static_cast<unsigned long long>(st.deadline_exceeded),
      static_cast<unsigned long long>(st.overload_rejected),
      static_cast<unsigned long long>(st.cancelled),
      static_cast<unsigned long long>(st.plan_cache_hits),
      static_cast<unsigned long long>(st.plan_cache_misses));
  if (!st.store_mode.empty()) {
    std::printf("store: mode=%s bytes_mapped=%llu\n", st.store_mode.c_str(),
                static_cast<unsigned long long>(st.store_bytes_mapped));
  }

  if (const char* path = FlagValue(argc, argv, "--session-report")) {
    obs::SessionReport report;
    session.FillSessionReport(&report);
    report.dataset = dataset != nullptr
                         ? dataset
                         : (graph_path != nullptr ? graph_path : store_path);
    if (Status s = report.WriteFile(path); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "session report written to %s\n", path);
  }
  return ss.inflight == 0 ? 0 : 1;
}
