// Storage-engine bench: one .lcsr2 snapshot, two open modes (DESIGN.md
// Section 9, EXPERIMENTS.md "Storage engine"). Two questions, both
// dimensionless so they transfer across machines:
//
//   1. Cold open: how much faster does an mmap open (header validation
//      only, adjacency faults in lazily) get to a usable store than a full
//      heap load of the same file?
//   2. Warm enumeration: once the page cache is hot, does enumerating over
//      the mapped CSR cost anything vs the owning in-memory Graph? The
//      --check gate requires warm mmap within 1.10x of heap.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "bench_util.h"
#include "graph/graph_io.h"
#include "obs/json.h"
#include "storage/graph_store.h"

namespace {

// min-of-reps: wall-clock medians wobble, minima are stable (repo idiom).
template <typename Fn>
double MinSeconds(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < reps; ++i) {
    light::Timer timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace light;
  using namespace light::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv, /*scale=*/0.5,
                                          /*limit=*/120.0, {"yt_s", "lj_s"},
                                          {"P2"});
  bool check = false;
  double warm_gate = 1.10;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        warm_gate = std::atof(argv[i + 1]);
      }
    }
  }
  PrintHeader("Storage engine: heap vs mmap over one snapshot", args);

  bool gate_failed = false;
  double worst_warm_ratio = 0.0;
  double best_cold_speedup = 0.0;

  for (const std::string& dataset : args.datasets) {
    const BenchGraph bg = LoadBenchGraph(dataset, args.scale);
    const Pattern pattern = LoadPattern(args.patterns[0]);
    PlanOptions options = PlanOptions::Light();
    options.kernel = BestAvailableKernel();
    const ExecutionPlan plan = BuildPlan(pattern, bg.graph, bg.stats, options);

    const std::string path = "/tmp/light_bench_store_" + dataset + ".lcsr2";
    if (!SaveStoreFile(bg.graph, path).ok()) {
      std::fprintf(stderr, "cannot spill %s\n", dataset.c_str());
      return 1;
    }
    const double adjacency_mb =
        static_cast<double>(bg.graph.NeighborsSpan().size() *
                            sizeof(VertexID)) /
        (1024.0 * 1024.0);

    // --- Cold open: full heap load vs instant mmap validation. ---
    const double heap_open_s = MinSeconds(3, [&] {
      std::shared_ptr<const GraphStore> s;
      GraphStore::OpenOptions o;
      o.mode = GraphStore::Mode::kHeap;
      if (!GraphStore::Open(path, o, &s).ok()) std::exit(1);
    });
    const double mmap_open_s = MinSeconds(3, [&] {
      std::shared_ptr<const GraphStore> s;
      GraphStore::OpenOptions o;
      o.mode = GraphStore::Mode::kMmap;
      if (!GraphStore::Open(path, o, &s).ok()) std::exit(1);
    });
    const double cold_speedup =
        mmap_open_s > 0 ? heap_open_s / mmap_open_s : 0.0;
    best_cold_speedup = std::max(best_cold_speedup, cold_speedup);

    // --- Warm enumeration: heap store vs hot mapped CSR, same plan. ---
    std::shared_ptr<const GraphStore> mmap_store;
    std::shared_ptr<const GraphStore> heap_store;
    {
      GraphStore::OpenOptions o;
      o.mode = GraphStore::Mode::kMmap;
      if (!GraphStore::Open(path, o, &mmap_store).ok()) return 1;
      o.mode = GraphStore::Mode::kHeap;
      if (!GraphStore::Open(path, o, &heap_store).ok()) return 1;
    }
    uint64_t heap_matches = 0;
    const double heap_s = MinSeconds(3, [&] {
      Enumerator e(heap_store->view(), plan);
      heap_matches = e.Count();
    });
    uint64_t mmap_matches = 0;
    // One untimed warm-up count faults the whole mapping in, so the timed
    // reps measure enumeration, not first-touch page faults.
    {
      Enumerator e(mmap_store->view(), plan);
      mmap_matches = e.Count();
    }
    const double mmap_s = MinSeconds(3, [&] {
      Enumerator e(mmap_store->view(), plan);
      mmap_matches = e.Count();
    });
    const double warm_ratio = heap_s > 0 ? mmap_s / heap_s : 1.0;
    worst_warm_ratio = std::max(worst_warm_ratio, warm_ratio);
    const bool parity = mmap_matches == heap_matches;

    std::printf(
        "%-6s %-4s adjacency %.1f MB | cold open: heap %s mmap %s "
        "(speedup %.1fx) | warm: heap %s mmap %s (ratio %.3f) %s\n",
        bg.name.c_str(), args.patterns[0].c_str(), adjacency_mb,
        FormatSeconds(heap_open_s).c_str(), FormatSeconds(mmap_open_s).c_str(),
        cold_speedup, FormatSeconds(heap_s).c_str(),
        FormatSeconds(mmap_s).c_str(), warm_ratio,
        parity ? "counts ok" : "COUNT MISMATCH");
    if (!parity) gate_failed = true;

    // Machine-readable summary record (snapshot.sh reads the last one):
    // the two gated dimensionless metrics plus the raw seconds behind them.
    if (!args.json_path.empty()) {
      obs::JsonWriter w;
      w.BeginObject();
      w.KV("bench", "bench_store");
      w.KV("dataset", dataset);
      w.KV("pattern", args.patterns[0]);
      w.KV("variant", "summary");
      w.KV("scale", args.scale);
      w.KV("cold_open_speedup", cold_speedup);
      w.KV("mmap_warm_ratio", warm_ratio);
      w.KV("heap_open_seconds", heap_open_s);
      w.KV("mmap_open_seconds", mmap_open_s);
      w.KV("heap_seconds", heap_s);
      w.KV("mmap_seconds", mmap_s);
      w.KV("matches", heap_matches);
      w.KV("parity", parity);
      w.EndObject();
      std::FILE* f = std::fopen(args.json_path.c_str(), "a");
      if (f != nullptr) {
        std::fprintf(f, "%s\n", w.str().c_str());
        std::fclose(f);
      }
    }
    std::remove(path.c_str());
  }

  if (check) {
    if (worst_warm_ratio > warm_gate) {
      std::fprintf(stderr,
                   "FAIL: warm mmap/heap ratio %.3f exceeds gate %.2f\n",
                   worst_warm_ratio, warm_gate);
      gate_failed = true;
    }
    if (best_cold_speedup < 1.0) {
      std::fprintf(stderr,
                   "FAIL: cold mmap open (%.2fx) not faster than heap load\n",
                   best_cold_speedup);
      gate_failed = true;
    }
    if (gate_failed) return 1;
    std::printf(
        "\ncheck ok: warm mmap within %.2fx of heap (worst %.3f), cold-open "
        "speedup %.1fx, all counts identical\n",
        warm_gate, worst_warm_ratio, best_cold_speedup);
  }
  return gate_failed ? 1 : 0;
}
