// Command-line front end for the LIGHT subgraph enumeration library.
//
// Examples:
//   light_cli --dataset yt_s --pattern P2
//   light_cli --graph edges.txt --pattern k4 --algorithm se --threads 8
//   light_cli --dataset lj_s --scale 0.5 --pattern P6 --show-plan
//   light_cli --dataset yt_s --pattern P1 --algorithm seed|crystal|eh|cfl
//   light_cli --dataset yt_s --save-store yt.lcsr2
//   light_cli --graph-store yt.lcsr2 --store-mode mmap --pattern P2

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "flags.h"
#include "baselines/cfl_like.h"
#include "baselines/eh_like.h"
#include "common/timer.h"
#include "gen/catalog.h"
#include "join/bsp_engine.h"
#include "light.h"
#include "plan/cardinality.h"
#include "storage/graph_store.h"

namespace {

void Usage() {
  std::fprintf(stderr, R"(light_cli: parallel subgraph enumeration (LIGHT, ICDE 2019 reproduction)

  --dataset NAME     synthetic catalog graph (yt_s eu_s lj_s ot_s uk_s fs_s)
  --scale S          scale factor for --dataset (default 1.0)
  --graph PATH       load a graph file instead of a catalog graph (edge list
                     or .lcsr2 snapshot — format is sniffed)
  --graph-store PATH query a CSR snapshot through the storage engine
                     (.lcsr2 for mmap; heap mode also accepts edge lists;
                     light/se/lm/msc only)
  --store-mode MODE  heap | mmap (default) — how --graph-store opens
  --save-store PATH  write the loaded graph as an .lcsr2 snapshot and exit
                     (unless a pattern/batch is also requested)
  --pattern NAME     pattern (P1..P7, triangle, k4, k5, house, ... )
  --pattern-edges S  ad-hoc pattern, e.g. "0-1,1-2,0-2" (see pattern/parse.h)
                     (--edges is accepted as an alias)
  --algorithm A      light (default) | se | lm | msc | cfl | eh | seed | crystal
  --threads K        worker threads (default 1; light/se/lm/msc only)
  --kernel NAME      merge | merge_avx2 | galloping | binary_search | hybrid |
                     hybrid_avx2
                     (default: best available; pinning an unavailable one errors)
  --time-limit SEC   abort after SEC seconds
  --no-symmetry      count all matches instead of unique subgraphs
  --induced          vertex-induced (motif) semantics
  --bitmap-threshold N|never
                     bitmap-index degree threshold: vertices with degree >= N
                     get bitmap neighborhoods (0 = every vertex, never =
                     disable; default: derive from --bitmap-density)
  --bitmap-density D relative threshold delta_b: index degree >= D*|V|
                     (default 0.1)
  --show-plan        print the compiled execution plan, and after the run
                     the planner's q-error at each MAT level
  --batch PATH       run every pattern listed in PATH (one per line: a
                     catalog name or pattern-edges syntax; '#' comments)
                     through one shared light::Session — plans are cached
                     and the worker pool persists across queries. --threads
                     defaults to all cores here; light/se/lm/msc only.

observability (README "Observability"):
  --metrics-json PATH  write a structured JSON run report (per-vertex
                       comp/mat counts, per-worker steal/idle stats,
                       intersection kernel counters)
  --session-report PATH
                       with --batch: write a light.session_report.v1 JSON
                       (per-query lifecycle timings, pool-level latency
                       quantiles, slow-query log)
  --slow-query-threshold SEC
                       with --batch: queries slower than SEC land in the
                       session report's slow-query log
  --trace-out PATH     write a Chrome trace-event file; open it in
                       chrome://tracing or https://ui.perfetto.dev
                       (concurrent --batch queries render as per-query lanes)
  --trace-sample N     trace every Nth root (power of two, default 64)
  --progress           print periodic roots/matches/ETA to stderr
)");
}

using light::tools::FlagSet;
using light::tools::FlagValue;

/// Periodic roots-done / matches-so-far / ETA ticker driven by the metrics
/// registry counters the engine publishes. Costs nothing when not started.
class ProgressMeter {
 public:
  void Start(uint64_t total_roots) {
    total_roots_ = total_roots;
    thread_ = std::thread([this] { Loop(); });
  }

  void Stop() {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    std::fprintf(stderr, "\n");
  }

 private:
  void Loop() {
    light::obs::MetricsRegistry& registry = light::obs::DefaultRegistry();
    const light::obs::Counter* roots = registry.GetCounter("engine.roots_done");
    const light::obs::Counter* matches =
        registry.GetCounter("engine.matches_found");
    light::Timer timer;
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
      const uint64_t done = roots->Value();
      const uint64_t found = matches->Value();
      const double elapsed = timer.ElapsedSeconds();
      std::string eta = "?";
      if (done > 0 && done <= total_roots_) {
        eta = light::FormatSeconds(
            elapsed * static_cast<double>(total_roots_ - done) /
            static_cast<double>(done));
      }
      std::fprintf(stderr,
                   "\rprogress: roots %llu/%llu (%.1f%%)  matches=%llu  "
                   "eta=%s   ",
                   static_cast<unsigned long long>(done),
                   static_cast<unsigned long long>(total_roots_),
                   total_roots_ > 0
                       ? 100.0 * static_cast<double>(done) /
                             static_cast<double>(total_roots_)
                       : 0.0,
                   static_cast<unsigned long long>(found), eta.c_str());
    }
  }

  uint64_t total_roots_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace light;
  if (argc <= 1 || FlagSet(argc, argv, "--help")) {
    Usage();
    return argc <= 1 ? 1 : 0;
  }
  light::tools::RejectUnknownFlags(
      argc, argv,
      {"--dataset", "--scale", "--graph", "--graph-store", "--store-mode",
       "--save-store", "--pattern", "--pattern-edges", "--edges",
       "--algorithm", "--threads", "--kernel",
       "--time-limit", "--bitmap-threshold", "--bitmap-density", "--batch",
       "--metrics-json", "--session-report", "--slow-query-threshold",
       "--trace-out", "--trace-sample"},
      {"--no-symmetry", "--induced", "--show-plan", "--progress"});

  const char* dataset = FlagValue(argc, argv, "--dataset");
  const char* graph_path = FlagValue(argc, argv, "--graph");
  const char* pattern_name = FlagValue(argc, argv, "--pattern");
  const char* pattern_edges = FlagValue(argc, argv, "--pattern-edges");
  // --edges is the unified short spelling shared with plan_lint; the long
  // form stays as an alias so existing scripts keep working.
  if (pattern_edges == nullptr) {
    pattern_edges = FlagValue(argc, argv, "--edges");
  }
  const char* algorithm = FlagValue(argc, argv, "--algorithm");
  const char* kernel_name = FlagValue(argc, argv, "--kernel");
  const char* threads_str = FlagValue(argc, argv, "--threads");
  const char* scale_str = FlagValue(argc, argv, "--scale");
  const char* limit_str = FlagValue(argc, argv, "--time-limit");

  const char* batch_path = FlagValue(argc, argv, "--batch");
  const char* store_path = FlagValue(argc, argv, "--graph-store");
  const char* save_store_path = FlagValue(argc, argv, "--save-store");
  if ((pattern_name == nullptr && pattern_edges == nullptr &&
       batch_path == nullptr && save_store_path == nullptr) ||
      (dataset == nullptr && graph_path == nullptr && store_path == nullptr)) {
    Usage();
    return 1;
  }

  Pattern pattern;
  if (batch_path != nullptr || (pattern_name == nullptr &&
                                pattern_edges == nullptr)) {
    // Patterns come from the batch file, or there is no query at all
    // (--save-store only spills the snapshot); the single-pattern flags
    // are unused either way.
  } else if (pattern_edges != nullptr) {
    if (Status s = ParsePattern(pattern_edges, &pattern); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    // Run rejects disconnected patterns too, but the CLI builds its own
    // plan override before it calls Run, and BuildPlan requires one.
    if (!pattern.IsConnected()) {
      std::fprintf(stderr, "error: pattern must be connected\n");
      return 1;
    }
    pattern_name = pattern_edges;
  } else if (Status s = FindPattern(pattern_name, &pattern); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }

  // Data source: either a GraphStore (one snapshot, two open modes) or a
  // plain in-memory graph. The GraphView seam keeps the rest of the CLI
  // mode-blind.
  std::shared_ptr<const GraphStore> store;
  Graph graph;
  Timer load_timer;
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
  } else if (graph_path != nullptr) {
    Graph raw;
    if (Status s = LoadAuto(graph_path, &raw); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    graph = RelabelByDegree(raw);
  } else {
    const double scale = scale_str != nullptr ? std::atof(scale_str) : 1.0;
    if (Status s = MakeCatalogGraph(dataset, scale, &graph); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // The resident CSR every LIGHT-family path plans and saves from.
  const Graph& data_graph = store != nullptr ? *store->graph() : graph;

  if (save_store_path != nullptr) {
    if (Status s = SaveStoreFile(data_graph, save_store_path); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "store snapshot written to %s\n", save_store_path);
    if (pattern_name == nullptr && pattern_edges == nullptr &&
        batch_path == nullptr) {
      return 0;
    }
  }

  const GraphStats stats =
      store != nullptr ? ComputeGraphStats(store->view())
                       : ComputeGraphStats(graph);
  if (store != nullptr) {
    std::printf("graph: %s [store mode=%s] (opened in %s)\n",
                stats.ToString().c_str(),
                GraphStore::ModeName(store->mode()),
                FormatSeconds(load_timer.ElapsedSeconds()).c_str());
  } else {
    std::printf("graph: %s (loaded in %s)\n", stats.ToString().c_str(),
                FormatSeconds(load_timer.ElapsedSeconds()).c_str());
  }
  if (batch_path == nullptr) {
    std::printf("pattern %s: %s\n", pattern_name, pattern.ToString().c_str());
  }

  const std::string algo = algorithm != nullptr ? algorithm : "light";
  const double time_limit = limit_str != nullptr
                                ? std::atof(limit_str)
                                : std::numeric_limits<double>::infinity();
  const bool symmetry = !FlagSet(argc, argv, "--no-symmetry");

  // Observability wiring: all of it is off (and near-free) by default.
  const char* metrics_json = FlagValue(argc, argv, "--metrics-json");
  const char* trace_out = FlagValue(argc, argv, "--trace-out");
  const char* trace_sample = FlagValue(argc, argv, "--trace-sample");
  const bool progress = FlagSet(argc, argv, "--progress");
  if (trace_out != nullptr) {
    if (trace_sample != nullptr) {
      const long n = std::atol(trace_sample);
      if (n < 1 || (n & (n - 1)) != 0) {
        std::fprintf(stderr, "error: --trace-sample must be a power of two\n");
        return 1;
      }
      obs::Tracer::Global().SetRootSampleMask(static_cast<uint64_t>(n) - 1);
    }
    obs::Tracer::Global().Start();
  }
  if (metrics_json != nullptr || progress) {
    obs::DefaultRegistry().ResetAll();
    obs::SetMetricsEnabled(true);
  }
  ProgressMeter meter;
  if (progress) {
    meter.Start(store != nullptr ? store->NumVertices() : graph.NumVertices());
  }

  // Default kernel comes from the facade (single source of truth); a pinned
  // --kernel must actually run on this build/CPU.
  IntersectKernel kernel = BestAvailableKernel();
  const bool kernel_pinned = kernel_name != nullptr;
  if (kernel_pinned) {
    const std::optional<IntersectKernel> parsed = KernelFromName(kernel_name);
    if (!parsed) {
      std::fprintf(stderr, "error: unknown kernel %s\n", kernel_name);
      return 1;
    }
    kernel = *parsed;
    if (!KernelAvailable(kernel)) {
      std::fprintf(stderr, "error: kernel %s not available on this build/CPU\n",
                   kernel_name);
      return 1;
    }
  }

  // A requested sink (--metrics-json/--trace-out) that cannot be written is
  // a failed run for the script consuming it, even when the count succeeds.
  bool sink_error = false;

  // Flushes the trace file (when requested) once the run is over.
  auto write_trace = [&]() {
    if (trace_out == nullptr) return;
    obs::Tracer::Global().Stop();
    if (Status s = obs::Tracer::Global().WriteChromeJson(trace_out); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      sink_error = true;
    } else {
      std::fprintf(stderr, "trace written to %s (%llu events dropped)\n",
                   trace_out,
                   static_cast<unsigned long long>(
                       obs::Tracer::Global().DroppedEvents()));
    }
  };

  // Batch mode: every listed pattern runs through one shared Session, so
  // the worker pool, bitmap index, and plan cache persist across queries.
  if (batch_path != nullptr) {
    if (algo != "light" && algo != "se" && algo != "lm" && algo != "msc") {
      std::fprintf(stderr,
                   "error: --batch supports light/se/lm/msc only (got %s)\n",
                   algo.c_str());
      return 1;
    }
    std::vector<Pattern> patterns;
    std::vector<std::string> names;
    {
      FILE* f = std::fopen(batch_path, "r");
      if (f == nullptr) {
        std::fprintf(stderr, "error: cannot open %s\n", batch_path);
        return 1;
      }
      char line[1024];
      size_t line_no = 0;
      while (std::fgets(line, sizeof line, f) != nullptr) {
        ++line_no;
        std::string s(line);
        while (!s.empty() && (s.back() == '\n' || s.back() == '\r' ||
                              s.back() == ' ' || s.back() == '\t')) {
          s.pop_back();
        }
        size_t start = s.find_first_not_of(" \t");
        if (start == std::string::npos || s[start] == '#') continue;
        s = s.substr(start);
        Pattern p;
        if (!FindPattern(s.c_str(), &p).ok()) {
          if (Status st = ParsePattern(s, &p); !st.ok()) {
            std::fprintf(stderr, "error: %s line %zu: %s\n", batch_path,
                         line_no, st.ToString().c_str());
            std::fclose(f);
            return 1;
          }
          if (!p.IsConnected()) {
            std::fprintf(stderr, "error: %s line %zu: pattern must be "
                         "connected\n", batch_path, line_no);
            std::fclose(f);
            return 1;
          }
        }
        patterns.push_back(std::move(p));
        names.push_back(std::move(s));
      }
      std::fclose(f);
    }
    if (patterns.empty()) {
      std::fprintf(stderr, "error: %s lists no patterns\n", batch_path);
      return 1;
    }

    SessionOptions session_options;
    session_options.threads = threads_str != nullptr ? std::atoi(threads_str)
                                                     : 0;  // all cores
    if (const char* v = FlagValue(argc, argv, "--bitmap-threshold")) {
      session_options.plan_options.bitmap_min_degree =
          std::strcmp(v, "never") == 0
              ? kBitmapDegreeNever
              : static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    }
    if (const char* v = FlagValue(argc, argv, "--bitmap-density")) {
      session_options.plan_options.bitmap_density = std::atof(v);
    }
    const char* session_report_path = FlagValue(argc, argv, "--session-report");
    if (const char* v = FlagValue(argc, argv, "--slow-query-threshold")) {
      session_options.slow_query_threshold_seconds = std::atof(v);
    }

    RunOptions query;
    query.time_limit_seconds = limit_str != nullptr ? std::atof(limit_str) : 0;
    query.unique_subgraphs = symmetry;
    query.plan_options.induced = FlagSet(argc, argv, "--induced");
    query.plan_options.kernel = kernel;
    query.plan_options.auto_kernel = !kernel_pinned;
    query.plan_options.lazy_materialization = algo == "light" || algo == "lm";
    query.plan_options.minimum_set_cover = algo == "light" || algo == "msc";

    Timer batch_timer;
    Session session = store != nullptr ? Session(store, session_options)
                                       : Session(graph, session_options);
    const std::vector<RunResult> results = session.RunBatch(patterns, query);
    const double batch_seconds = batch_timer.ElapsedSeconds();
    meter.Stop();
    write_trace();
    if (metrics_json != nullptr) {
      std::fprintf(stderr,
                   "warning: --metrics-json is not supported with --batch\n");
    }

    // Failed queries must be loud and must fail the run: a hard error
    // (validation, lint) exits 1, a budget kill (deadline / classic OOT)
    // exits 2. Only completed queries count toward the throughput line.
    bool any_error = false;
    bool any_timeout = false;
    size_t completed = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      const RunResult& r = results[i];
      if (r.outcome == QueryOutcome::kDeadlineExceeded) {
        any_timeout = true;
        std::printf("[%zu] %s: DEADLINE matches=%llu (partial) time=%s: %s\n",
                    i, names[i].c_str(),
                    static_cast<unsigned long long>(r.num_matches),
                    FormatSeconds(r.elapsed_seconds).c_str(), r.error.c_str());
        continue;
      }
      if (!r.ok()) {
        any_error = true;
        std::printf("[%zu] %s: error: %s\n", i, names[i].c_str(),
                    r.error.c_str());
        continue;
      }
      any_timeout = any_timeout || r.timed_out;
      if (!r.timed_out) ++completed;
      const obs::QueryStats& qs = r.query_stats;
      std::printf(
          "[%zu] %s: %s matches=%llu time=%s queue=%s plan=%s%s exec=%s\n", i,
          names[i].c_str(), r.timed_out ? "OOT" : "OK",
          static_cast<unsigned long long>(r.num_matches),
          FormatSeconds(r.elapsed_seconds).c_str(),
          FormatSeconds(static_cast<double>(qs.queue_wait_ns) / 1e9).c_str(),
          FormatSeconds(static_cast<double>(qs.plan_ns) / 1e9).c_str(),
          qs.plan_cache_hit ? "(cached)" : "",
          FormatSeconds(static_cast<double>(qs.execute_ns) / 1e9).c_str());
    }
    const SessionStats session_stats = session.stats();
    std::printf(
        "batch: %zu/%zu queries completed in %s (%.1f queries/s) threads=%d "
        "plan_cache hits=%llu misses=%llu\n",
        completed, results.size(), FormatSeconds(batch_seconds).c_str(),
        batch_seconds > 0 ? static_cast<double>(completed) / batch_seconds
                          : 0.0,
        session_stats.pool_threads,
        static_cast<unsigned long long>(session_stats.plan_cache_hits),
        static_cast<unsigned long long>(session_stats.plan_cache_misses));
    // Pool-level latency breakdown (queue wait vs execute is the serving
    // question: is slowness scheduling or work?).
    const auto quantile_line = [](const char* label,
                                  const obs::HistogramSummary& h) {
      std::printf("%-11s p50=%s p99=%s p99.9=%s max=%s\n", label,
                  FormatSeconds(static_cast<double>(h.p50) / 1e9).c_str(),
                  FormatSeconds(static_cast<double>(h.p99) / 1e9).c_str(),
                  FormatSeconds(static_cast<double>(h.p999) / 1e9).c_str(),
                  FormatSeconds(static_cast<double>(h.max) / 1e9).c_str());
    };
    quantile_line("latency", session_stats.latency);
    quantile_line("queue_wait", session_stats.queue_wait);
    quantile_line("execute", session_stats.execute);
    for (const obs::SlowQueryRecord& sq : session.slow_queries()) {
      std::printf("%s query id=%llu latency=%s pattern=[%s] plan=[%s]\n",
                  sq.kind.c_str(),
                  static_cast<unsigned long long>(sq.query_id),
                  FormatSeconds(sq.latency_seconds).c_str(),
                  sq.pattern.c_str(), sq.plan_sigma.c_str());
    }
    if (session_report_path != nullptr) {
      obs::SessionReport session_report;
      session.FillSessionReport(&session_report);
      session_report.dataset =
          dataset != nullptr
              ? dataset
              : (graph_path != nullptr ? graph_path : store_path);
      if (Status s = session_report.WriteFile(session_report_path); !s.ok()) {
        std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
        sink_error = true;
      } else {
        std::fprintf(stderr, "session report written to %s\n",
                     session_report_path);
      }
    }
    if (any_error) return 1;
    if (any_timeout) return 2;
    return sink_error ? 1 : 0;
  }

  // The baseline simulators and cfl run on an owning in-memory Graph; the
  // storage engine serves the LIGHT family only.
  if (store != nullptr && algo != "light" && algo != "se" && algo != "lm" &&
      algo != "msc") {
    std::fprintf(stderr,
                 "error: --graph-store supports light/se/lm/msc only "
                 "(got %s)\n",
                 algo.c_str());
    return 1;
  }

  // Distributed-baseline simulators.
  if (algo == "seed" || algo == "crystal" || algo == "eh") {
    BspOptions options;
    options.kernel = kernel;
    options.time_limit_seconds = time_limit;
    options.symmetry_breaking = symmetry;
    const BspResult result = algo == "seed"
                                 ? RunSeedLike(graph, pattern, options)
                                 : algo == "crystal"
                                       ? RunCrystalLike(graph, pattern, options)
                                       : RunEhLike(graph, pattern, options);
    meter.Stop();
    write_trace();
    if (metrics_json != nullptr) {
      std::fprintf(stderr,
                   "warning: --metrics-json is not supported for the BSP "
                   "baseline simulators\n");
    }
    std::printf("%s-like: %s matches=%llu cpu=%s io=%s peak=%.1f MB\n",
                algo.c_str(), result.Outcome().c_str(),
                static_cast<unsigned long long>(result.num_matches),
                FormatSeconds(result.cpu_seconds).c_str(),
                FormatSeconds(result.simulated_io_seconds).c_str(),
                static_cast<double>(result.peak_bytes) / (1024.0 * 1024.0));
    if (!result.status.ok()) return 2;
    return sink_error ? 1 : 0;
  }

  // The LIGHT family runs through the facade: every remaining flag maps 1:1
  // onto a RunOptions field, so the facade owns defaults and validation.
  RunOptions run_options;
  run_options.threads = threads_str != nullptr ? std::atoi(threads_str) : 1;
  run_options.time_limit_seconds =
      limit_str != nullptr ? std::atof(limit_str) : 0;
  run_options.unique_subgraphs = symmetry;
  run_options.plan_options.induced = FlagSet(argc, argv, "--induced");
  run_options.plan_options.kernel = kernel;
  run_options.plan_options.auto_kernel = !kernel_pinned;
  if (algo == "se") {
    run_options.plan_options.lazy_materialization = false;
    run_options.plan_options.minimum_set_cover = false;
  } else if (algo == "lm") {
    run_options.plan_options.lazy_materialization = true;
    run_options.plan_options.minimum_set_cover = false;
  } else if (algo == "msc") {
    run_options.plan_options.lazy_materialization = false;
    run_options.plan_options.minimum_set_cover = true;
  } else if (algo != "light" && algo != "cfl") {
    std::fprintf(stderr, "error: unknown algorithm %s\n", algo.c_str());
    return 1;
  }

  const char* bitmap_threshold_str =
      FlagValue(argc, argv, "--bitmap-threshold");
  const char* bitmap_density_str = FlagValue(argc, argv, "--bitmap-density");
  if (bitmap_threshold_str != nullptr) {
    if (std::strcmp(bitmap_threshold_str, "never") == 0) {
      run_options.plan_options.bitmap_min_degree = kBitmapDegreeNever;
    } else {
      run_options.plan_options.bitmap_min_degree =
          static_cast<uint32_t>(std::strtoul(bitmap_threshold_str, nullptr, 10));
    }
  }
  if (bitmap_density_str != nullptr) {
    run_options.plan_options.bitmap_density = std::atof(bitmap_density_str);
  }

  // Build the plan once (reusing the stats computed above) and hand it to
  // Run as an override; cfl uses its own plan builder.
  const ExecutionPlan plan =
      algo == "cfl"
          ? BuildCflLikePlan(pattern, symmetry)
          : BuildRunPlan(data_graph, stats, pattern, run_options);
  run_options.plan = &plan;
  if (FlagSet(argc, argv, "--show-plan")) {
    std::printf("%s", plan.ToString().c_str());
  }

  // Report sink: always attached so the result line can print the routing
  // counters; flushed to --metrics-json when requested. Run() resets the
  // sink, so the CLI metadata is layered on after the call.
  obs::RunReport report;
  run_options.report = &report;

  if (Status s = run_options.Validate(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }

  RunResult result;
  if (store != nullptr) {
    // Store-backed single query: a short-lived Session carries the store
    // view (and its shared bitmap cache) through the same run path.
    SessionOptions session_options;
    session_options.threads = run_options.threads;
    session_options.plan_options.bitmap_min_degree =
        run_options.plan_options.bitmap_min_degree;
    session_options.plan_options.bitmap_density =
        run_options.plan_options.bitmap_density;
    Session session(store, session_options);
    result = session.RunSync(pattern, run_options);
  } else {
    result = Run(graph, pattern, run_options);
  }
  meter.Stop();
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.error.c_str());
    return 1;
  }
  report.tool = "light_cli";
  report.dataset = dataset != nullptr
                       ? dataset
                       : (graph_path != nullptr ? graph_path : store_path);
  report.pattern = pattern_name;
  report.algorithm = algo;
  if (metrics_json != nullptr) {
    if (Status s = report.WriteFile(metrics_json); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      sink_error = true;
    } else {
      std::fprintf(stderr, "run report written to %s\n", metrics_json);
    }
  }
  write_trace();

  const IntersectStats& isx = report.engine.intersections;
  if (report.summary.threads_configured > 1) {
    std::printf(
        "%s x%d/%d: %s matches=%llu time=%s intersections=%llu "
        "elements=%llu bitmap=%.1f%% steals=%llu imbalance=%.2f\n",
        algo.c_str(), report.summary.threads_used,
        report.summary.threads_configured, result.timed_out ? "OOT" : "OK",
        static_cast<unsigned long long>(result.num_matches),
        FormatSeconds(result.elapsed_seconds).c_str(),
        static_cast<unsigned long long>(isx.num_intersections),
        static_cast<unsigned long long>(isx.elements),
        100.0 * isx.BitmapFraction(),
        static_cast<unsigned long long>(report.summary.total_steals),
        report.summary.load_imbalance);
  } else {
    std::printf(
        "%s: %s matches=%llu time=%s intersections=%llu elements=%llu "
        "galloping=%.1f%% bitmap=%.1f%%\n",
        algo.c_str(), result.timed_out ? "OOT" : "OK",
        static_cast<unsigned long long>(result.num_matches),
        FormatSeconds(result.elapsed_seconds).c_str(),
        static_cast<unsigned long long>(isx.num_intersections),
        static_cast<unsigned long long>(isx.elements),
        100.0 * isx.GallopingFraction(), 100.0 * isx.BitmapFraction());
  }
  if (FlagSet(argc, argv, "--show-plan") && run_options.plan == &plan &&
      !result.timed_out) {
    // The planner's model against the run: per MAT level, the restricted
    // estimate of the materialized prefix and the partial matches the
    // engine bound there; q = max(est/act, act/est), counts floored at 1.
    const CardinalityEstimator estimator(data_graph, stats);
    uint32_t prefix = 0;
    for (const Operation& op : plan.sigma) {
      if (op.type != OpType::kMaterialize) continue;
      prefix |= 1u << op.vertex;
      const double estimate = estimator.EstimateMatches(
          plan.pattern, prefix, plan.partial_order);
      const uint64_t actual =
          report.engine.mat_counts[static_cast<size_t>(op.vertex)];
      const double est = std::max(estimate, 1.0);
      const double act = std::max(static_cast<double>(actual), 1.0);
      std::printf("q-error MAT(u%d): est=%.4g actual=%llu q=%.2f\n",
                  op.vertex, estimate, static_cast<unsigned long long>(actual),
                  std::max(est / act, act / est));
    }
  }
  if (result.timed_out) return 2;
  return sink_error ? 1 : 0;
}
