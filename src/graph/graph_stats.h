#ifndef LIGHT_GRAPH_GRAPH_STATS_H_
#define LIGHT_GRAPH_GRAPH_STATS_H_

#include <cstdint>
#include <string>

#include "graph/graph_view.h"

namespace light {

/// Summary statistics of a data graph. Used for Table II reporting and as
/// input to the SEED-style cardinality estimator (Section VI), which reads
/// |V|, |E| and the first two degree moments (the planner measures wedge
/// closing by sampling, so it never needs the triangle count).
struct GraphStats {
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;  // undirected
  uint32_t max_degree = 0;
  double avg_degree = 0.0;          // 2M / N
  double degree_second_moment = 0.0;  // E[d^2]
  /// Average degree of the endpoint of a uniformly random directed edge,
  /// E[d^2] / E[d]. In skewed graphs this greatly exceeds avg_degree and is
  /// the right expansion factor for edge-biased walks.
  double avg_neighbor_degree = 0.0;
  uint64_t num_triangles = 0;       // only if requested (reporting)
  size_t memory_bytes = 0;

  std::string ToString() const;
};

/// Computes statistics over any GraphView (degree moments read the offsets
/// only, O(|V|)). Triangle counting costs roughly sum_v d(v)^2 / 2
/// intersections; it is for reporting only, and no planner input needs it.
GraphStats ComputeGraphStats(const GraphView& view,
                             bool count_triangles = false);
GraphStats ComputeGraphStats(const Graph& graph, bool count_triangles = false);

/// Exact triangle count via forward adjacency intersection.
uint64_t CountTriangles(const GraphView& view);
uint64_t CountTriangles(const Graph& graph);

}  // namespace light

#endif  // LIGHT_GRAPH_GRAPH_STATS_H_
