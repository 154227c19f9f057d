// Labeled subgraph matching: find typed structures in a heterogeneous
// network. The scenario models a collaboration network whose vertices carry
// roles (1 = researcher, 2 = paper, 3 = venue) and queries a typed pattern:
// two researchers who co-authored a paper that appeared at a venue.
//
//        researcher(1) --- paper(2) --- researcher(1)
//                             |
//                          venue(3)
//
// Labels prune the search drastically; the example reports both the labeled
// match count and how much smaller it is than the unlabeled one.

#include <cstdio>

#include "common/rng.h"
#include "engine/enumerator.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"
#include "pattern/pattern.h"
#include "plan/plan.h"

int main() {
  using namespace light;

  // Build a synthetic heterogeneous network: researchers attach to papers,
  // papers to venues, plus researcher-researcher collaboration edges.
  Rng rng(2026);
  const VertexID num_researchers = 6000;
  const VertexID num_papers = 3000;
  const VertexID num_venues = 60;
  const VertexID n = num_researchers + num_papers + num_venues;
  GraphBuilder builder(n);
  auto paper_id = [&](VertexID p) { return num_researchers + p; };
  auto venue_id = [&](VertexID v) { return num_researchers + num_papers + v; };
  for (VertexID p = 0; p < num_papers; ++p) {
    // 2-4 authors per paper, preferential-ish by squaring the draw.
    const int authors = 2 + static_cast<int>(rng.NextBounded(3));
    for (int a = 0; a < authors; ++a) {
      const auto r = static_cast<VertexID>(
          rng.NextBounded(num_researchers) * rng.NextBounded(num_researchers) %
          num_researchers);
      builder.AddEdge(paper_id(p), r);
    }
    builder.AddEdge(paper_id(p), venue_id(static_cast<VertexID>(
                                     rng.NextBounded(num_venues))));
  }
  for (int e = 0; e < 4000; ++e) {
    builder.AddEdge(static_cast<VertexID>(rng.NextBounded(num_researchers)),
                    static_cast<VertexID>(rng.NextBounded(num_researchers)));
  }

  const Graph raw = builder.Build();
  std::vector<VertexID> old_to_new;
  const Graph graph = RelabelByDegree(raw, &old_to_new);
  // Labels must follow the relabeling.
  std::vector<uint32_t> labels(graph.NumVertices());
  for (VertexID old_id = 0; old_id < n; ++old_id) {
    uint32_t label = 1;
    if (old_id >= num_researchers) label = 2;
    if (old_id >= num_researchers + num_papers) label = 3;
    labels[old_to_new[old_id]] = label;
  }

  const GraphStats stats = ComputeGraphStats(graph);
  std::printf("network: %s\n", stats.ToString().c_str());

  // The typed query: u0,u2 researchers; u1 paper; u3 venue.
  Pattern query = Pattern::FromEdges(4, {{0, 1}, {1, 2}, {1, 3}});
  query.SetLabel(0, 1);
  query.SetLabel(1, 2);
  query.SetLabel(2, 1);
  query.SetLabel(3, 3);

  PlanOptions options = PlanOptions::Light();
  if (!KernelAvailable(options.kernel)) options.kernel = IntersectKernel::kHybrid;
  const ExecutionPlan plan = BuildPlan(query, graph, stats, options);

  Enumerator labeled(graph, plan, &labels);
  const uint64_t typed_matches = labeled.Count();
  std::printf(
      "typed matches (researcher-paper-researcher @ venue): %llu in %s\n",
      static_cast<unsigned long long>(typed_matches),
      FormatSeconds(labeled.stats().elapsed_seconds).c_str());

  // The same topology without labels matches far more subgraphs.
  Pattern untyped = Pattern::FromEdges(4, {{0, 1}, {1, 2}, {1, 3}});
  const ExecutionPlan untyped_plan = BuildPlan(untyped, graph, stats, options);
  Enumerator unlabeled(graph, untyped_plan);
  const uint64_t untyped_matches = unlabeled.Count();
  std::printf("same topology untyped: %llu (labels pruned %.1f%%)\n",
              static_cast<unsigned long long>(untyped_matches),
              100.0 * (1.0 - static_cast<double>(typed_matches) /
                                 static_cast<double>(untyped_matches)));
  return typed_matches <= untyped_matches ? 0 : 1;
}
