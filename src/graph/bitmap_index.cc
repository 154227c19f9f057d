#include "graph/bitmap_index.h"

#include <algorithm>

#include "graph/graph.h"
#include "graph/graph_view.h"
#include "intersect/bitmap.h"

namespace light {

BitmapIndex BitmapIndex::Build(const Graph& graph,
                               const BitmapIndexOptions& options) {
  return Build(GraphView(graph), options);
}

BitmapIndex BitmapIndex::Build(const GraphView& view,
                               const BitmapIndexOptions& options) {
  BitmapIndex index;
  const VertexID n = view.NumVertices();
  index.words_ = BitmapWords(n);
  index.row_of_.assign(n, -1);
  if (n == 0 || options.min_degree == kBitmapDegreeNever ||
      index.words_ == 0) {
    return index;
  }

  std::vector<VertexID> qualifying;
  for (VertexID v = 0; v < n; ++v) {
    if (view.Degree(v) >= options.min_degree) qualifying.push_back(v);
  }

  const size_t row_bytes = index.words_ * sizeof(uint64_t);
  const size_t budget_rows =
      row_bytes == 0 ? 0 : options.max_bytes / row_bytes;
  if (qualifying.size() > budget_rows) {
    // Keep the densest rows; ties go to the lower vertex ID so the build is
    // deterministic across runs.
    std::sort(qualifying.begin(), qualifying.end(),
              [&](VertexID a, VertexID b) {
                const uint32_t da = view.Degree(a);
                const uint32_t db = view.Degree(b);
                return da != db ? da > db : a < b;
              });
    qualifying.resize(budget_rows);
    std::sort(qualifying.begin(), qualifying.end());
  }

  index.num_rows_ = qualifying.size();
  index.rows_.assign(index.num_rows_ * index.words_, 0);
  for (size_t r = 0; r < qualifying.size(); ++r) {
    const VertexID v = qualifying[r];
    index.row_of_[v] = static_cast<int64_t>(r);
    uint64_t* row = index.rows_.data() + r * index.words_;
    for (const VertexID u : view.Neighbors(v)) {
      row[u >> 6] |= uint64_t{1} << (u & 63u);
    }
  }
  return index;
}

}  // namespace light
