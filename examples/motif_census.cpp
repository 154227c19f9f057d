// Motif census: count every connected 4-vertex subgraph class, the network
// motif discovery workload the paper's introduction cites [26].
//
// There are exactly six connected graphs on four vertices; for each, the
// program counts unique INDUCED occurrences (motif semantics: non-edges
// matter, so every 4-vertex subset is classified into exactly one class)
// plus the plain subgraph-isomorphism embeddings the paper's Definition
// II.1 counts. Everything runs through the same public plan/engine API.

#include <cstdio>

#include "engine/enumerator.h"
#include "gen/generators.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"
#include "pattern/pattern.h"
#include "plan/plan.h"

namespace {

struct Motif {
  const char* name;
  light::Pattern pattern;
};

std::vector<Motif> FourVertexMotifs() {
  using light::Pattern;
  return {
      {"path (P4)", Pattern::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}})},
      {"star (K1,3)", Pattern::FromEdges(4, {{0, 1}, {0, 2}, {0, 3}})},
      {"paw (triangle+tail)",
       Pattern::FromEdges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}})},
      {"cycle (C4)", Pattern::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}})},
      {"diamond (K4-e)",
       Pattern::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})},
      {"clique (K4)",
       Pattern::FromEdges(4,
                          {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})},
  };
}

}  // namespace

int main(int argc, char** argv) {
  using namespace light;
  // Optional CLI override of the graph size for larger runs.
  const VertexID n = argc > 1 ? static_cast<VertexID>(std::atoi(argv[1]))
                              : VertexID{8000};

  const Graph graph =
      RelabelByDegree(BarabasiAlbert(n, /*edges_per_vertex=*/3, /*seed=*/7));
  const GraphStats stats = ComputeGraphStats(graph);
  std::printf("data graph: %s\n\n", stats.ToString().c_str());

  PlanOptions options = PlanOptions::Light();
  if (!KernelAvailable(options.kernel)) options.kernel = IntersectKernel::kHybrid;

  PlanOptions induced_options = options;
  induced_options.induced = true;

  double total = 0.0;
  std::vector<uint64_t> induced_counts;
  const auto motifs = FourVertexMotifs();
  std::printf("%-24s %14s %14s\n", "motif", "induced", "embeddings");
  for (const Motif& motif : motifs) {
    const ExecutionPlan induced_plan =
        BuildPlan(motif.pattern, graph, stats, induced_options);
    Enumerator induced_engine(graph, induced_plan);
    const uint64_t induced = induced_engine.Count();
    const ExecutionPlan plan = BuildPlan(motif.pattern, graph, stats, options);
    Enumerator enumerator(graph, plan);
    const uint64_t embeddings = enumerator.Count();
    induced_counts.push_back(induced);
    total += static_cast<double>(induced);
    std::printf("%-24s %14llu %14llu\n", motif.name,
                static_cast<unsigned long long>(induced),
                static_cast<unsigned long long>(embeddings));
  }

  std::printf("\nmotif concentrations (induced):\n");
  for (size_t i = 0; i < motifs.size(); ++i) {
    std::printf("%-24s %8.4f%%\n", motifs[i].name,
                100.0 * static_cast<double>(induced_counts[i]) / total);
  }
  return 0;
}
