// Quickstart: count the embeddings of a pattern in a graph with LIGHT.
//
// Build:  cmake --build build --target quickstart
// Run:    ./build/examples/quickstart
//
// The program walks through the library's core workflow:
//   1. build (or load) a data graph and degree-order it,
//   2. pick a pattern,
//   3. compile an execution plan (enumeration order, lazy-materialization
//      schedule, minimum-set-cover operands),
//   4. count serially, then in parallel.

#include <cstdio>

#include "engine/enumerator.h"
#include "gen/generators.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"
#include "parallel/parallel_enumerator.h"
#include "pattern/catalog.h"
#include "plan/plan.h"

int main() {
  using namespace light;

  // 1. Data graph: a scale-free synthetic graph, relabeled by degree so the
  //    symmetry-breaking ID comparisons of Section II-A apply.
  const Graph graph = RelabelByDegree(BarabasiAlbert(
      /*n=*/20000, /*edges_per_vertex=*/4, /*seed=*/42));
  const GraphStats stats = ComputeGraphStats(graph);
  std::printf("data graph: %s\n", stats.ToString().c_str());

  // 2. Pattern: the chordal square from the paper's running example.
  Pattern pattern;
  if (!FindPattern("P2", &pattern).ok()) return 1;
  std::printf("pattern: %s\n", pattern.ToString().c_str());

  // 3. Plan: PlanOptions::Light() enables lazy materialization and
  //    minimum-set-cover candidate computation; the optimizer picks the
  //    enumeration order from the cost model of Section VI.
  PlanOptions options = PlanOptions::Light();
  options.kernel = KernelAvailable(IntersectKernel::kHybridAvx2)
                       ? IntersectKernel::kHybridAvx2
                       : IntersectKernel::kHybrid;
  const ExecutionPlan plan = BuildPlan(pattern, graph, stats, options);
  std::printf("%s", plan.ToString().c_str());

  // 4a. Serial count.
  Enumerator enumerator(graph, plan);
  const uint64_t matches = enumerator.Count();
  std::printf("serial:   %llu matches in %s (%llu set intersections)\n",
              static_cast<unsigned long long>(matches),
              FormatSeconds(enumerator.stats().elapsed_seconds).c_str(),
              static_cast<unsigned long long>(
                  enumerator.stats().intersections.num_intersections));

  // 4b. Parallel count with the work-stealing runtime.
  ParallelOptions parallel;
  parallel.num_threads = 4;
  const ParallelResult result = ParallelCount(graph, plan, parallel);
  std::printf("parallel: %llu matches in %s on %d workers\n",
              static_cast<unsigned long long>(result.num_matches),
              FormatSeconds(result.elapsed_seconds).c_str(),
              result.threads_used);

  return matches == result.num_matches ? 0 : 1;
}
