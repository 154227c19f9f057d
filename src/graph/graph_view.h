#ifndef LIGHT_GRAPH_GRAPH_VIEW_H_
#define LIGHT_GRAPH_GRAPH_VIEW_H_

/// GraphView: the one neighbor-access seam every engine entry point takes.
///
/// A view is a cheap value (two pointers + dimensions) over a resident CSR
/// owned elsewhere — a heap Graph or an mmap'd .lcsr2 section borrowed by
/// a GraphStore. Neighbors() always returns a span into the resident array,
/// so the whole engine fast path (bitmap router included) runs unchanged in
/// every store mode.
///
/// Implicit construction from `const Graph&` keeps every existing call site
/// compiling; storage/graph_store.h hands out views of its backing Graph.

#include <cstdint>
#include <span>

#include "graph/graph.h"

namespace light {

class GraphView {
 public:
  GraphView() = default;

  /// Implicit: every `const Graph&` call site keeps working.
  GraphView(const Graph& graph)  // NOLINT(google-explicit-constructor)
      : offsets_(graph.OffsetsSpan().data()),
        neighbors_(graph.NeighborsSpan().data()),
        n_(graph.NumVertices()),
        slots_(graph.NeighborsSpan().size()),
        max_degree_(graph.MaxDegree()) {}

  VertexID NumVertices() const { return n_; }
  EdgeID NumEdges() const { return slots_ / 2; }
  uint32_t MaxDegree() const { return max_degree_; }

  uint32_t Degree(VertexID v) const {
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Sorted neighbor set N(v).
  std::span<const VertexID> Neighbors(VertexID v) const {
    return {neighbors_ + offsets_[v],
            static_cast<size_t>(offsets_[v + 1] - offsets_[v])};
  }

  /// Edge membership test: binary search over the smaller-degree endpoint.
  bool HasEdge(VertexID u, VertexID v) const {
    if (u >= n_ || v >= n_) return false;
    if (Degree(u) > Degree(v)) {
      const VertexID t = u;
      u = v;
      v = t;
    }
    const std::span<const VertexID> nbrs = Neighbors(u);
    // Branch-light binary search; adjacency slices are sorted ascending.
    size_t lo = 0, hi = nbrs.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (nbrs[mid] < v) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo < nbrs.size() && nbrs[lo] == v;
  }

 private:
  const EdgeID* offsets_ = nullptr;      // size N+1
  const VertexID* neighbors_ = nullptr;  // size slots
  VertexID n_ = 0;
  EdgeID slots_ = 0;
  uint32_t max_degree_ = 0;
};

}  // namespace light

#endif  // LIGHT_GRAPH_GRAPH_VIEW_H_
