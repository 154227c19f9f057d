// Ablation of the planner decisions DESIGN.md calls out:
//  (a) enumeration-order choice: the Section-VI optimizer vs the best /
//      median / worst connected order (exhaustive sweep, measured by actual
//      intersections executed);
//  (b) cardinality estimator: sampling (SEED-style) vs analytic.
//
// Not a paper figure; it quantifies how much the order optimizer matters
// and how close its pick is to the true optimum.

#include <algorithm>

#include "bench_util.h"
#include "plan/cardinality.h"
#include "plan/order_optimizer.h"

int main(int argc, char** argv) {
  using namespace light;
  using namespace light::bench;
  const BenchArgs args =
      BenchArgs::Parse(argc, argv, /*scale=*/0.25, /*limit=*/30.0, {"yt_s"},
                       {"P1", "P2", "P4", "P6"});
  PrintHeader("Ablation: enumeration-order optimizer", args);

  for (const std::string& dataset : args.datasets) {
    const BenchGraph bg = LoadBenchGraph(dataset, args.scale);
    for (const std::string& pname : args.patterns) {
      const Pattern pattern = LoadPattern(pname);
      const PartialOrder constraints = ComputeSymmetryBreaking(pattern);

      // Measure every connected order (consistent with the partial order).
      const auto orders = EnumerateConnectedOrders(pattern, constraints);
      std::vector<std::pair<double, const std::vector<int>*>> measured;
      for (const auto& pi : orders) {
        PlanOptions options = PlanOptions::Light();
        options.kernel = BestAvailableKernel();
        const RunResult r =
            RunSerial(bg, pattern, options, args.time_limit_seconds, &pi);
        if (!r.oot) {
          measured.emplace_back(r.seconds, &pi);
        }
      }
      if (measured.empty()) continue;
      std::sort(measured.begin(), measured.end());

      // The optimizer's pick, under each estimator.
      const CardinalityEstimator sampling(bg.graph, bg.stats);
      const CardinalityEstimator analytic(bg.stats);
      const auto pick_time = [&](const CardinalityEstimator& est) {
        const std::vector<int> pi =
            OptimizeEnumerationOrder(pattern, est, constraints, true, true);
        PlanOptions options = PlanOptions::Light();
        options.kernel = BestAvailableKernel();
        return RunSerial(bg, pattern, options, args.time_limit_seconds, &pi)
            .seconds;
      };
      const double sampled_pick = pick_time(sampling);
      const double analytic_pick = pick_time(analytic);

      std::printf(
          "%-6s %-4s | %zu orders | best %-9s median %-9s worst %-9s | "
          "optimizer(sampling) %-9s optimizer(analytic) %-9s\n",
          bg.name.c_str(), pname.c_str(), measured.size(),
          FormatSeconds(measured.front().first).c_str(),
          FormatSeconds(measured[measured.size() / 2].first).c_str(),
          FormatSeconds(measured.back().first).c_str(),
          FormatSeconds(sampled_pick).c_str(),
          FormatSeconds(analytic_pick).c_str());
    }
  }
  std::printf(
      "\nThe optimizer should land near 'best'; worst/best gaps of 10-100x "
      "show why Section VI matters.\n");
  return 0;
}
