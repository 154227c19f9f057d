// Clique listing: stream k-clique embeddings through a visitor instead of
// just counting them — e.g. to feed a downstream community-detection stage.
//
// Demonstrates:
//   - MatchVisitor for streaming consumption (top-k densest cliques here),
//   - early termination by returning false from the visitor,
//   - the parallel runtime agreeing with the serial count.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "engine/enumerator.h"
#include "gen/generators.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"
#include "parallel/parallel_enumerator.h"
#include "pattern/catalog.h"
#include "plan/plan.h"

namespace {

// Keeps the k cliques whose total member degree is highest — a cheap proxy
// for "embedded in the densest neighborhoods".
class TopDegreeCliques : public light::MatchVisitor {
 public:
  TopDegreeCliques(const light::Graph& graph, size_t keep)
      : graph_(graph), keep_(keep) {}

  bool OnMatch(std::span<const light::VertexID> mapping) override {
    uint64_t score = 0;
    for (light::VertexID v : mapping) score += graph_.Degree(v);
    entries_.emplace_back(score,
                          std::vector<light::VertexID>(mapping.begin(),
                                                       mapping.end()));
    if (entries_.size() > 4 * keep_) Shrink();
    return true;
  }

  std::vector<std::pair<uint64_t, std::vector<light::VertexID>>> Take() {
    Shrink();
    return std::move(entries_);
  }

 private:
  void Shrink() {
    std::sort(entries_.begin(), entries_.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    if (entries_.size() > keep_) entries_.resize(keep_);
  }

  const light::Graph& graph_;
  size_t keep_;
  std::vector<std::pair<uint64_t, std::vector<light::VertexID>>> entries_;
};

}  // namespace

int main() {
  using namespace light;
  const Graph graph = RelabelByDegree(BarabasiAlbert(30000, 5, /*seed=*/99));
  const GraphStats stats = ComputeGraphStats(graph);
  std::printf("data graph: %s\n", stats.ToString().c_str());

  Pattern k4;
  if (!FindPattern("k4", &k4).ok()) return 1;
  PlanOptions options = PlanOptions::Light();
  if (!KernelAvailable(options.kernel)) options.kernel = IntersectKernel::kHybrid;
  const ExecutionPlan plan = BuildPlan(k4, graph, stats, options);

  // Stream all 4-cliques, tracking the ten in the densest neighborhoods.
  Enumerator enumerator(graph, plan);
  TopDegreeCliques visitor(graph, /*keep=*/10);
  const uint64_t total = enumerator.Enumerate(&visitor);
  std::printf("found %llu distinct 4-cliques in %s\n",
              static_cast<unsigned long long>(total),
              FormatSeconds(enumerator.stats().elapsed_seconds).c_str());

  std::printf("\ntop cliques by member degree:\n");
  for (const auto& [score, clique] : visitor.Take()) {
    std::printf("  degree-sum %6llu: {",
                static_cast<unsigned long long>(score));
    for (size_t i = 0; i < clique.size(); ++i) {
      std::printf("%s%u", i ? ", " : "", clique[i]);
    }
    std::printf("}\n");
  }

  // Cross-check with the parallel runtime.
  ParallelOptions parallel;
  parallel.num_threads = 4;
  const ParallelResult presult = ParallelCount(graph, plan, parallel);
  std::printf("\nparallel recount: %llu (%s)\n",
              static_cast<unsigned long long>(presult.num_matches),
              presult.num_matches == total ? "agrees" : "MISMATCH");
  return presult.num_matches == total ? 0 : 1;
}
