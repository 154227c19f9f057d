// Figure 8: overall comparison of LIGHT (+P) against DUALSIM-like (the same
// in-memory DFS enumeration, parallelized -- see DESIGN.md Section 6),
// SEED-like and CRYSTAL-like (BSP join engines with space accounting) on
// all 7 patterns x all 6 datasets (Section VIII-C).
//
// Output cells: time, or INF (out of time) / OOS (out of space), matching
// the paper's chart conventions. Expected shape: LIGHT completes all 42
// cases; the BFS baselines hit OOS on the dense patterns (intermediate
// result explosion); DUALSIM-like hits INF on the heavy cases.

#include <thread>

#include "bench_util.h"
#include "join/bsp_engine.h"

namespace {

std::string BspCell(const light::BspResult& r) {
  if (r.status.ok()) return light::FormatSeconds(r.TotalSeconds());
  return r.Outcome() == "OOT" ? "INF" : r.Outcome();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace light;
  using namespace light::bench;
  const BenchArgs args = BenchArgs::Parse(
      argc, argv, /*scale=*/0.5, /*limit=*/30.0,
      {"yt_s", "eu_s", "lj_s", "ot_s", "uk_s", "fs_s"},
      {"P1", "P2", "P3", "P4", "P5", "P6", "P7"});
  PrintHeader("Figure 8: LIGHT vs DUALSIM-like vs SEED-like vs CRYSTAL-like",
              args);

  // The simulated cluster: the paper's 12-node Hadoop deployment had ~6 TB
  // of HDFS for intermediate results at full data scale. Scaled to our
  // reduced datasets, give the BFS engines a budget proportional to the
  // data: 2000x the CSR bytes of the largest graph would be ~6TB/1.8B
  // edges; we grant 256 MB which is generous at scale 0.5.
  const size_t kClusterBudget = size_t{256} << 20;
  const int threads = std::max(2u, std::thread::hardware_concurrency());

  std::printf("%-6s %-4s | %10s %10s %10s %10s | %14s\n", "graph", "P",
              "LIGHT", "DUALSIM~", "SEED~", "CRYSTAL~", "matches");
  int light_ok = 0;
  int dualsim_fail = 0;
  int seed_fail = 0;
  int crystal_fail = 0;
  int cases = 0;
  for (const std::string& dataset : args.datasets) {
    const BenchGraph bg = LoadBenchGraph(dataset, args.scale);
    for (const std::string& pname : args.patterns) {
      const Pattern pattern = LoadPattern(pname);
      ++cases;

      // LIGHT with full parallelization.
      PlanOptions light_options = PlanOptions::Light();
      light_options.kernel = BestAvailableKernel();
      const RunResult light = RunParallel(bg, pattern, light_options, threads,
                                          args.time_limit_seconds);
      RecordRun(args, "fig8_overall", dataset, pname, "light", threads, light);
      if (!light.oot) ++light_ok;

      // DUALSIM-like: SE's enumeration with the same parallel runtime.
      PlanOptions dualsim_options = PlanOptions::Se();
      dualsim_options.kernel = IntersectKernel::kMerge;
      const RunResult dualsim = RunParallel(bg, pattern, dualsim_options,
                                            threads, args.time_limit_seconds);
      RecordRun(args, "fig8_overall", dataset, pname, "dualsim", threads,
                dualsim);
      if (dualsim.oot) ++dualsim_fail;

      BspOptions bsp;
      bsp.kernel = BestAvailableKernel();
      bsp.memory_budget_bytes = kClusterBudget;
      bsp.time_limit_seconds = args.time_limit_seconds;
      const BspResult seed = RunSeedLike(bg.graph, pattern, bsp);
      if (!seed.status.ok()) ++seed_fail;
      const BspResult crystal = RunCrystalLike(bg.graph, pattern, bsp);
      if (!crystal.status.ok()) ++crystal_fail;

      std::printf("%-6s %-4s | %10s %10s %10s %10s | %14llu\n",
                  bg.name.c_str(), pname.c_str(), light.TimeCell().c_str(),
                  dualsim.TimeCell().c_str(), BspCell(seed).c_str(),
                  BspCell(crystal).c_str(),
                  static_cast<unsigned long long>(light.matches));
    }
  }
  std::printf(
      "\ncompletion: LIGHT %d/%d; DUALSIM-like fails %d, SEED-like fails %d, "
      "CRYSTAL-like fails %d\n",
      light_ok, cases, dualsim_fail, seed_fail, crystal_fail);
  std::printf(
      "paper: LIGHT completed all 42; DUALSIM, SEED, CRYSTAL failed 16, 8, "
      "and 12 cases.\n");
  return 0;
}
