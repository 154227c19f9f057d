#include "graph/graph_stats.h"

#include <algorithm>
#include <cstdio>
#include <span>

namespace light {

uint64_t CountTriangles(const GraphView& view) {
  // Standard forward counting: for each edge (u, v) with u < v, intersect the
  // higher-ID tails of N(u) and N(v) restricted to w > v. Counts each
  // triangle exactly once.
  const VertexID n = view.NumVertices();
  uint64_t triangles = 0;
  for (VertexID u = 0; u < n; ++u) {
    const std::span<const VertexID> nu = view.Neighbors(u);
    auto u_hi = std::upper_bound(nu.begin(), nu.end(), u);
    for (auto it = u_hi; it != nu.end(); ++it) {
      const VertexID v = *it;
      const std::span<const VertexID> nv = view.Neighbors(v);
      auto a = std::upper_bound(nu.begin(), nu.end(), v);
      auto b = std::upper_bound(nv.begin(), nv.end(), v);
      while (a != nu.end() && b != nv.end()) {
        if (*a < *b) {
          ++a;
        } else if (*b < *a) {
          ++b;
        } else {
          ++triangles;
          ++a;
          ++b;
        }
      }
    }
  }
  return triangles;
}

uint64_t CountTriangles(const Graph& graph) {
  return CountTriangles(GraphView(graph));
}

GraphStats ComputeGraphStats(const GraphView& view, bool count_triangles) {
  GraphStats stats;
  stats.num_vertices = view.NumVertices();
  stats.num_edges = view.NumEdges();
  stats.max_degree = view.MaxDegree();
  stats.memory_bytes = (stats.num_vertices + 1) * sizeof(EdgeID) +
                       2 * stats.num_edges * sizeof(VertexID);
  if (stats.num_vertices == 0) return stats;

  double sum_d = 0.0;
  double sum_d2 = 0.0;
  for (VertexID v = 0; v < view.NumVertices(); ++v) {
    const double d = view.Degree(v);
    sum_d += d;
    sum_d2 += d * d;
  }
  stats.avg_degree = sum_d / static_cast<double>(stats.num_vertices);
  stats.degree_second_moment =
      sum_d2 / static_cast<double>(stats.num_vertices);
  stats.avg_neighbor_degree =
      sum_d > 0 ? sum_d2 / sum_d : 0.0;

  if (count_triangles) stats.num_triangles = CountTriangles(view);
  return stats;
}

GraphStats ComputeGraphStats(const Graph& graph, bool count_triangles) {
  GraphStats stats = ComputeGraphStats(GraphView(graph), count_triangles);
  stats.memory_bytes = graph.MemoryBytes();
  return stats;
}

std::string GraphStats::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "N=%llu M=%llu d_max=%u d_avg=%.2f E[d^2]=%.1f mem=%.3f GB",
                static_cast<unsigned long long>(num_vertices),
                static_cast<unsigned long long>(num_edges), max_degree,
                avg_degree, degree_second_moment,
                static_cast<double>(memory_bytes) / (1024.0 * 1024.0 * 1024.0));
  return buf;
}

}  // namespace light
