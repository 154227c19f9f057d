// Table IV: overall improvement over SE (Section VIII-B3).
// Rows: T_SE, T_SE+P, T_LIGHT (serial, no SIMD? -- the paper's T_LIGHT is
// LIGHT without parallelization; T_LIGHT+P adds HybridAVX2 + all threads),
// and the total speedup T_SE / T_LIGHT+P.

#include <thread>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace light;
  using namespace light::bench;
  const BenchArgs args =
      BenchArgs::Parse(argc, argv, /*scale=*/1.0, /*limit=*/300.0,
                       {"yt_s", "lj_s"}, {"P2", "P4", "P6"});
  PrintHeader("Table IV: comparison with SE", args);

  const int threads = std::max(2u, std::thread::hardware_concurrency());
  std::printf("(+P uses %d threads and HybridAVX2 when available)\n\n",
              threads);
  std::printf("%-6s %-4s | %10s %10s %10s %10s | %9s\n", "graph", "P", "SE",
              "SE+P", "LIGHT", "LIGHT+P", "speedup");
  for (const std::string& dataset : args.datasets) {
    const BenchGraph bg = LoadBenchGraph(dataset, args.scale);
    for (const std::string& pname : args.patterns) {
      const Pattern pattern = LoadPattern(pname);

      PlanOptions se_options = PlanOptions::Se();
      se_options.kernel = IntersectKernel::kMerge;  // SE's plain merge
      PlanOptions light_options = PlanOptions::Light();
      light_options.kernel = IntersectKernel::kMerge;
      PlanOptions light_p_options = PlanOptions::Light();
      light_p_options.kernel = BestAvailableKernel();
      PlanOptions se_p_options = PlanOptions::Se();
      se_p_options.kernel = BestAvailableKernel();

      const RunResult se =
          RunSerial(bg, pattern, se_options, args.time_limit_seconds);
      const RunResult se_p =
          RunParallel(bg, pattern, se_p_options, threads,
                      args.time_limit_seconds);
      const RunResult light =
          RunSerial(bg, pattern, light_options, args.time_limit_seconds);
      const RunResult light_p = RunParallel(bg, pattern, light_p_options,
                                            threads, args.time_limit_seconds);

      char speedup[32];
      if (se.oot || light_p.oot || light_p.seconds <= 0) {
        std::snprintf(speedup, sizeof(speedup), "%s", "-");
      } else {
        std::snprintf(speedup, sizeof(speedup), "%.0fx",
                      se.seconds / light_p.seconds);
      }
      std::printf("%-6s %-4s | %10s %10s %10s %10s | %9s\n", bg.name.c_str(),
                  pname.c_str(), se.TimeCell().c_str(),
                  se_p.TimeCell().c_str(), light.TimeCell().c_str(),
                  light_p.TimeCell().c_str(), speedup);
    }
  }
  std::printf(
      "\nPaper speedups (T_SE / T_LIGHT+P) were 752x-4942x on 20 cores; the\n"
      "ratio here scales with this host's core count and the data scale.\n");
  return 0;
}
