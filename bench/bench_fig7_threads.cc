// Figure 7: execution time of LIGHT (HybridAVX2) with 1..64 threads
// (Section VIII-B2). The paper sees near-linear speedup up to the 20
// physical cores and up to ~25x with hyper-threading at 64 threads.
//
// NOTE: the speedup shape is only reproducible on machines with multiple
// physical cores; EXPERIMENTS.md records what this host provides. The
// harness still sweeps the full thread range so the work-stealing runtime
// is exercised at every width.

#include <thread>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace light;
  using namespace light::bench;
  const BenchArgs args =
      BenchArgs::Parse(argc, argv, /*scale=*/1.0, /*limit=*/120.0,
                       {"yt_s", "lj_s"}, {"P2", "P4", "P6"});
  PrintHeader("Figure 7: LIGHT execution time vs number of threads", args);
  std::printf("hardware concurrency of this host: %u\n\n",
              std::thread::hardware_concurrency());

  const int thread_counts[] = {1, 2, 4, 8, 16, 32, 64};
  std::printf("%-6s %-4s |", "graph", "P");
  for (int t : thread_counts) std::printf(" %9dT", t);
  std::printf(" | %9s\n", "speedup");
  for (const std::string& dataset : args.datasets) {
    const BenchGraph bg = LoadBenchGraph(dataset, args.scale);
    for (const std::string& pname : args.patterns) {
      const Pattern pattern = LoadPattern(pname);
      PlanOptions options = PlanOptions::Light();
      options.kernel = BestAvailableKernel();
      std::printf("%-6s %-4s |", bg.name.c_str(), pname.c_str());
      double t1 = 0.0;
      double best = 0.0;
      for (int t : thread_counts) {
        const RunResult r =
            RunParallel(bg, pattern, options, t, args.time_limit_seconds);
        std::printf(" %10s", r.TimeCell().c_str());
        RecordRun(args, "fig7_threads", dataset, pname, "light", t, r);
        if (t == 1) t1 = r.seconds;
        if (!r.oot) best = r.seconds;
      }
      std::printf(" | %8.2fx\n", best > 0 ? t1 / best : 0.0);
    }
  }
  return 0;
}
