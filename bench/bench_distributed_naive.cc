// Reproduces the paper's Section VIII-A observation about a naive
// distributed LIGHT: replicating the graph and splitting V(G) evenly across
// machines gives limited speedup because of load imbalance on skewed graphs
// (no workload estimation, no dynamic balancing). The work-stealing runtime
// (Figure 7) is the fix within one machine.
//
// Output: per-machine-count makespan vs ideal mean, and the imbalance ratio.

#include "bench_util.h"
#include "parallel/distributed_sim.h"

int main(int argc, char** argv) {
  using namespace light;
  using namespace light::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv, /*scale=*/0.5,
                                          /*limit=*/120.0, {"yt_s", "lj_s"},
                                          {"P2", "P4"});
  PrintHeader("Naive distributed LIGHT: static partitioning imbalance", args);

  std::printf("%-6s %-4s | %9s | %10s %10s %10s | %10s %10s\n", "graph",
              "P", "machines", "naive", "ideal", "imbalance", "balanced",
              "imbalance");
  for (const std::string& dataset : args.datasets) {
    const BenchGraph bg = LoadBenchGraph(dataset, args.scale);
    for (const std::string& pname : args.patterns) {
      const Pattern pattern = LoadPattern(pname);
      PlanOptions options = PlanOptions::Light();
      options.kernel = BestAvailableKernel();
      const ExecutionPlan plan =
          BuildPlan(pattern, bg.graph, bg.stats, options);
      for (int machines : {4, 12}) {
        const DistributedSimResult naive =
            SimulateNaiveDistributed(bg.graph, plan, machines);
        const DistributedSimResult balanced =
            SimulateBalancedDistributed(bg.graph, plan, machines);
        std::printf("%-6s %-4s | %9d | %10s %10s %9.2fx | %10s %9.2fx\n",
                    bg.name.c_str(), pname.c_str(), machines,
                    FormatSeconds(naive.MaxSeconds()).c_str(),
                    FormatSeconds(naive.MeanSeconds()).c_str(),
                    naive.Imbalance(),
                    FormatSeconds(balanced.MaxSeconds()).c_str(),
                    balanced.Imbalance());
      }
    }
  }
  std::printf(
      "\nmakespan = slowest machine; the degree-ordered relabeling piles the "
      "hubs\ninto the last partition, so static splitting loses most of the "
      "ideal speedup.\n");
  return 0;
}
