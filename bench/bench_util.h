#ifndef LIGHT_BENCH_BENCH_UTIL_H_
#define LIGHT_BENCH_BENCH_UTIL_H_

// Shared plumbing for the per-figure/table benchmark binaries. Each binary
// regenerates one table or figure of the paper's Section VIII at a reduced,
// configurable scale (see DESIGN.md Section 4 for the experiment index and
// EXPERIMENTS.md for recorded results).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/timer.h"
#include "engine/enumerator.h"
#include "gen/catalog.h"
#include "graph/graph_stats.h"
#include "obs/json.h"
#include "parallel/parallel_enumerator.h"
#include "pattern/catalog.h"
#include "plan/plan.h"

namespace light::bench {

struct BenchArgs {
  double scale = 1.0;
  double time_limit_seconds = 60.0;
  std::vector<std::string> datasets;
  std::vector<std::string> patterns;
  /// With --json PATH, every run is also appended to PATH as one JSON
  /// object per line (JSONL) — the machine-readable twin of the printed
  /// tables. See RecordRun.
  std::string json_path;

  /// Parses the shared flags (--scale, --time-limit, --dataset, --pattern,
  /// --json; each takes a value). `extra` names the flags the bench reads
  /// itself; one takes the next argument as its value unless that starts
  /// with "--". --help, an unknown flag, a stray argument or a missing value
  /// prints the usage and exits 1, so a misspelt flag never starts a sweep.
  static BenchArgs Parse(int argc, char** argv, double default_scale,
                         double default_limit,
                         std::vector<std::string> default_datasets,
                         std::vector<std::string> default_patterns,
                         std::vector<std::string> extra = {}) {
    BenchArgs args;
    args.scale = default_scale;
    args.time_limit_seconds = default_limit;
    args.datasets = std::move(default_datasets);
    args.patterns = std::move(default_patterns);
    const auto usage = [&](const std::string& error) {
      if (!error.empty()) std::fprintf(stderr, "error: %s\n", error.c_str());
      std::fprintf(stderr,
                   "usage: %s [--scale S] [--time-limit SEC] "
                   "[--dataset NAME] [--pattern NAME] [--json PATH]",
                   argv[0]);
      for (const std::string& flag : extra) {
        std::fprintf(stderr, " [%s ...]", flag.c_str());
      }
      std::fprintf(stderr, "\n");
      std::exit(1);
    };
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--help" || flag == "-h") usage("");
      if (std::find(extra.begin(), extra.end(), flag) != extra.end()) {
        if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) ++i;
        continue;
      }
      const bool shared = flag == "--scale" || flag == "--time-limit" ||
                          flag == "--dataset" || flag == "--pattern" ||
                          flag == "--json";
      if (!shared) {
        usage(flag.starts_with("-") ? "unknown flag " + flag
                                    : "unexpected argument " + flag);
      }
      if (i + 1 >= argc) usage("missing value for " + flag);
      const char* value = argv[++i];
      if (flag == "--scale") {
        args.scale = std::atof(value);
      } else if (flag == "--time-limit") {
        args.time_limit_seconds = std::atof(value);
      } else if (flag == "--dataset") {
        args.datasets = {value};
      } else if (flag == "--pattern") {
        args.patterns = {value};
      } else {
        args.json_path = value;
      }
    }
    return args;
  }
};

struct BenchGraph {
  std::string name;
  Graph graph;
  GraphStats stats;
};

inline BenchGraph LoadBenchGraph(const std::string& name, double scale) {
  BenchGraph bg;
  bg.name = name;
  const Status status = MakeCatalogGraph(name, scale, &bg.graph);
  if (!status.ok()) {
    std::fprintf(stderr, "failed to build %s: %s\n", name.c_str(),
                 status.ToString().c_str());
    std::exit(1);
  }
  bg.stats = ComputeGraphStats(bg.graph);
  return bg;
}

inline Pattern LoadPattern(const std::string& name) {
  Pattern p;
  const Status status = FindPattern(name, &p);
  if (!status.ok()) {
    std::fprintf(stderr, "unknown pattern %s\n", name.c_str());
    std::exit(1);
  }
  return p;
}

struct RunResult {
  double seconds = 0.0;
  uint64_t matches = 0;
  bool oot = false;
  EngineStats stats;
  // Parallel runs only (zero otherwise).
  int threads_used = 0;
  double load_imbalance = 0.0;
  uint64_t total_steals = 0;

  /// "1.23 s" or "INF" the way the paper's charts mark OOT runs.
  std::string TimeCell() const {
    return oot ? "INF" : FormatSeconds(seconds);
  }
};

/// Appends one JSONL record for a finished run when --json was given.
/// Schema: {bench, dataset, pattern, variant, threads, scale, seconds,
/// matches, oot, intersections, galloping_fraction, candidate_memory_bytes,
/// comp_counts, mat_counts, threads_used, load_imbalance, total_steals}.
inline void RecordRun(const BenchArgs& args, const char* bench,
                      const std::string& dataset, const std::string& pattern,
                      const char* variant, int threads,
                      const RunResult& result) {
  if (args.json_path.empty()) return;
  obs::JsonWriter w;
  w.BeginObject();
  w.KV("bench", bench);
  w.KV("dataset", dataset);
  w.KV("pattern", pattern);
  w.KV("variant", variant);
  w.KV("threads", threads);
  w.KV("scale", args.scale);
  w.KV("seconds", result.seconds);
  w.KV("matches", result.matches);
  w.KV("oot", result.oot);
  w.KV("intersections", result.stats.intersections.num_intersections);
  w.KV("galloping_fraction", result.stats.intersections.GallopingFraction());
  w.KV("candidate_memory_bytes",
       static_cast<uint64_t>(result.stats.candidate_memory_bytes));
  w.Key("comp_counts");
  w.BeginArray();
  for (uint64_t c : result.stats.comp_counts) w.Uint(c);
  w.EndArray();
  w.Key("mat_counts");
  w.BeginArray();
  for (uint64_t c : result.stats.mat_counts) w.Uint(c);
  w.EndArray();
  w.KV("threads_used", result.threads_used);
  w.KV("load_imbalance", result.load_imbalance);
  w.KV("total_steals", result.total_steals);
  w.EndObject();
  std::FILE* f = std::fopen(args.json_path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot append to %s\n", args.json_path.c_str());
    return;
  }
  std::fprintf(f, "%s\n", w.str().c_str());
  std::fclose(f);
}

/// Serial run of one engine variant.
inline RunResult RunSerial(const BenchGraph& bg, const Pattern& pattern,
                           PlanOptions options, double time_limit,
                           const std::vector<int>* pinned_order = nullptr) {
  const ExecutionPlan plan =
      pinned_order != nullptr
          ? BuildPlanWithOrder(pattern, *pinned_order, options)
          : BuildPlan(pattern, bg.graph, bg.stats, options);
  Enumerator enumerator(bg.graph, plan);
  enumerator.SetTimeLimit(time_limit);
  RunResult result;
  result.matches = enumerator.Count();
  result.stats = enumerator.stats();
  result.seconds = result.stats.elapsed_seconds;
  result.oot = result.stats.timed_out;
  return result;
}

/// Parallel run (the "+P" configurations).
inline RunResult RunParallel(const BenchGraph& bg, const Pattern& pattern,
                             PlanOptions options, int threads,
                             double time_limit) {
  const ExecutionPlan plan = BuildPlan(pattern, bg.graph, bg.stats, options);
  ParallelOptions popts;
  popts.num_threads = threads;
  popts.time_limit_seconds = time_limit;
  const ParallelResult presult = ParallelCount(bg.graph, plan, popts);
  RunResult result;
  result.matches = presult.num_matches;
  result.stats = presult.stats;
  result.seconds = presult.elapsed_seconds;
  result.oot = presult.timed_out;
  result.threads_used = presult.threads_used;
  result.load_imbalance = presult.load_imbalance;
  for (const obs::WorkerStats& w : presult.workers) {
    result.total_steals += w.steals_initiated;
  }
  return result;
}

inline void PrintHeader(const char* title, const BenchArgs& args) {
  std::printf("==== %s ====\n", title);
  std::printf("scale=%.3g time_limit=%.3gs (override with --scale/--time-limit)\n\n",
              args.scale, args.time_limit_seconds);
}

}  // namespace light::bench

#endif  // LIGHT_BENCH_BENCH_UTIL_H_
