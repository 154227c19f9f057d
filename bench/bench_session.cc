// Session throughput benchmark: what does the persistent multi-query
// service layer amortize over a stream of queries?
//
// Three legs on one catalog graph:
//  1. Batch: N repeated-pattern queries as N sequential one-shot light::Run
//     calls (each rebuilds stats, plan, bitmap index, and worker threads)
//     vs one Session::RunBatch over the same list (pool, index, and plan
//     cache persist). Acceptance (--check): session speedup >= --check-batch
//     (default 1.15).
//  2. Single-query latency: a fresh Session running one query vs one-shot
//     light::Run, min over --reps. Acceptance: session_min <= --check-single
//     * run_min (default 1.5) — the service layer must not tax the
//     one-query caller.
//  3. Counts from every leg must agree exactly.
//
// Every timed leg is appended to --json PATH as one JSONL record.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "light.h"

namespace {

using namespace light;
using namespace light::bench;

}  // namespace

int main(int argc, char** argv) {
  // Defaults target the serving regime the Session exists for — many small
  // queries, where per-call setup (threads, stats, plan, bitmap index) is a
  // large fraction of each one-shot Run. Raise --scale to watch the speedup
  // shrink as enumeration work swamps the amortized overhead.
  const BenchArgs args = BenchArgs::Parse(
      argc, argv, /*scale=*/0.02, /*limit=*/60.0, {"yt_s"}, {},
      {"--check", "--threads", "--queries", "--reps", "--check-batch",
       "--check-single"});
  const double scale = args.scale;
  const std::string& dataset = args.datasets[0];
  const std::string& json_path = args.json_path;
  int threads = 4;
  int num_queries = 32;
  int reps = 5;
  bool check = false;
  double check_batch = 1.15;
  double check_single = 1.5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
    else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
      threads = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc)
      num_queries = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc)
      reps = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--check-batch") == 0 && i + 1 < argc)
      check_batch = std::atof(argv[++i]);
    else if (std::strcmp(argv[i], "--check-single") == 0 && i + 1 < argc)
      check_single = std::atof(argv[++i]);
  }

  const BenchGraph bg = LoadBenchGraph(dataset, scale);
  std::printf("==== bench_session ====\n");
  std::printf("dataset=%s scale=%.3g threads=%d queries=%d reps=%d\n\n",
              dataset.c_str(), scale, threads, num_queries, reps);

  // Repeated-pattern stream: the shape a serving workload has (the same
  // handful of queries arriving over and over).
  const char* kNames[] = {"triangle", "square", "P3"};
  std::vector<Pattern> patterns;
  std::vector<std::string> names;
  for (int i = 0; i < num_queries; ++i) {
    names.push_back(kNames[i % 3]);
    patterns.push_back(LoadPattern(names.back()));
  }

  RunOptions query;
  query.threads = threads;

  // Leg 1a: N sequential one-shot Run calls.
  double oneshot_seconds = 0;
  std::vector<uint64_t> oneshot_counts;
  {
    double best = -1;
    for (int rep = 0; rep < reps; ++rep) {
      oneshot_counts.clear();
      const Timer timer;
      for (const Pattern& p : patterns) {
        const light::RunResult r = Run(bg.graph, p, query);
        if (!r.ok()) {
          std::fprintf(stderr, "FATAL: Run failed: %s\n", r.error.c_str());
          return 1;
        }
        oneshot_counts.push_back(r.num_matches);
      }
      const double s = timer.ElapsedSeconds();
      if (best < 0 || s < best) best = s;
    }
    oneshot_seconds = best;
  }

  // Leg 1b: the same stream through one persistent Session.
  double session_seconds = 0;
  std::vector<uint64_t> session_counts;
  SessionStats final_stats;
  {
    double best = -1;
    for (int rep = 0; rep < reps; ++rep) {
      SessionOptions session_options;
      session_options.threads = threads;
      const Timer timer;
      Session session(bg.graph, session_options);
      const std::vector<light::RunResult> results =
          session.RunBatch(patterns, query);
      const double s = timer.ElapsedSeconds();
      session_counts.clear();
      for (const light::RunResult& r : results) {
        if (!r.ok()) {
          std::fprintf(stderr, "FATAL: session query failed: %s\n",
                       r.error.c_str());
          return 1;
        }
        session_counts.push_back(r.num_matches);
      }
      if (best < 0 || s < best) best = s;
      final_stats = session.stats();
    }
    session_seconds = best;
  }

  if (session_counts != oneshot_counts) {
    std::fprintf(stderr, "FATAL: session counts diverge from one-shot Run\n");
    return 1;
  }

  const double batch_speedup =
      session_seconds > 0 ? oneshot_seconds / session_seconds : 0.0;
  std::printf("batch of %d queries (best of %d reps):\n", num_queries, reps);
  std::printf("  sequential light::Run   %s\n",
              FormatSeconds(oneshot_seconds).c_str());
  std::printf("  Session::RunBatch       %s  (speedup %.2fx, plan_cache "
              "hits=%llu misses=%llu)\n",
              FormatSeconds(session_seconds).c_str(), batch_speedup,
              static_cast<unsigned long long>(final_stats.plan_cache_hits),
              static_cast<unsigned long long>(final_stats.plan_cache_misses));

  // Leg 2: single-query latency — the session tax for a one-query caller.
  const Pattern single = LoadPattern("square");
  double run_min = -1;
  double session_min = -1;
  uint64_t run_count = 0;
  uint64_t session_count = 0;
  for (int rep = 0; rep < reps; ++rep) {
    {
      const Timer timer;
      const light::RunResult r = Run(bg.graph, single, query);
      const double s = timer.ElapsedSeconds();
      run_count = r.num_matches;
      if (run_min < 0 || s < run_min) run_min = s;
    }
    {
      SessionOptions session_options;
      session_options.threads = threads;
      const Timer timer;
      Session session(bg.graph, session_options);
      const light::RunResult r = session.RunSync(single, query);
      const double s = timer.ElapsedSeconds();
      session_count = r.num_matches;
      if (session_min < 0 || s < session_min) session_min = s;
    }
  }
  if (run_count != session_count) {
    std::fprintf(stderr, "FATAL: single-query counts diverge\n");
    return 1;
  }
  const double single_ratio = run_min > 0 ? session_min / run_min : 0.0;
  std::printf("\nsingle query (square, best of %d reps):\n", reps);
  std::printf("  one-shot light::Run     %s\n", FormatSeconds(run_min).c_str());
  std::printf("  fresh Session           %s  (ratio %.2fx)\n",
              FormatSeconds(session_min).c_str(), single_ratio);

  if (!json_path.empty()) {
    obs::JsonWriter w;
    w.BeginObject();
    w.KV("bench", "bench_session");
    w.KV("dataset", dataset);
    w.KV("threads", threads);
    w.KV("scale", scale);
    w.KV("queries", num_queries);
    w.KV("oneshot_seconds", oneshot_seconds);
    w.KV("session_seconds", session_seconds);
    w.KV("batch_speedup", batch_speedup);
    w.KV("single_run_seconds", run_min);
    w.KV("single_session_seconds", session_min);
    w.KV("single_ratio", single_ratio);
    w.KV("plan_cache_hits", final_stats.plan_cache_hits);
    w.KV("plan_cache_misses", final_stats.plan_cache_misses);
    w.EndObject();
    std::FILE* f = std::fopen(json_path.c_str(), "a");
    if (f != nullptr) {
      std::fprintf(f, "%s\n", w.str().c_str());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "cannot append to %s\n", json_path.c_str());
    }
  }

  if (check) {
    if (batch_speedup < check_batch) {
      std::fprintf(stderr,
                   "CHECK FAILED: batch speedup %.2fx below required %.2fx\n",
                   batch_speedup, check_batch);
      return 1;
    }
    if (single_ratio > check_single) {
      std::fprintf(stderr,
                   "CHECK FAILED: single-query session/run ratio %.2fx above "
                   "allowed %.2fx\n",
                   single_ratio, check_single);
      return 1;
    }
    std::printf("\nCHECK OK: batch speedup %.2fx >= %.2fx, single ratio "
                "%.2fx <= %.2fx\n",
                batch_speedup, check_batch, single_ratio, check_single);
  }
  return 0;
}
