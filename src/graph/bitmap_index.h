#ifndef LIGHT_GRAPH_BITMAP_INDEX_H_
#define LIGHT_GRAPH_BITMAP_INDEX_H_

/// Per-graph bitmap index: materializes the neighborhoods of dense data
/// vertices as fixed-universe bitmaps (one bit per data vertex) so candidate
/// computation can route their intersections to the bitmap kernels in
/// intersect/bitmap.h. Sparse vertices stay array-only — bitmap rows cost
/// |V|/8 bytes each, so only neighborhoods whose degree clears a threshold
/// (degree >= delta_b * |V|, or a tunable absolute threshold) pay for
/// themselves; a byte budget caps total memory, keeping the densest rows.
///
/// The index is immutable after Build and shared read-only across workers;
/// each worker carries its own word scratch for intersection results.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.h"

namespace light {

class Graph;
class GraphView;

/// Sentinel degree threshold meaning "index no vertex" (the pure-array
/// configuration; also what an unset fuzz-case threshold decodes to).
inline constexpr uint32_t kBitmapDegreeNever =
    std::numeric_limits<uint32_t>::max();

struct BitmapIndexOptions {
  /// Minimum degree for a vertex's neighborhood to get a bitmap row.
  /// 0 indexes every vertex; kBitmapDegreeNever indexes none.
  uint32_t min_degree = 0;

  /// Byte budget for row storage. When the qualifying rows exceed it, the
  /// densest rows are kept (ties broken by lower vertex ID, so builds are
  /// deterministic).
  size_t max_bytes = size_t{512} << 20;
};

class BitmapIndex {
 public:
  /// Empty index: no rows, words() == 0. Row() returns nullptr for all v.
  BitmapIndex() = default;

  /// Builds rows for every vertex with Degree(v) >= options.min_degree,
  /// densest-first under options.max_bytes.
  static BitmapIndex Build(const Graph& graph,
                           const BitmapIndexOptions& options = {});

  /// Same, over any GraphView (a heap or mmap store's view).
  static BitmapIndex Build(const GraphView& view,
                           const BitmapIndexOptions& options = {});

  /// True when no vertex has a row (hybrid routing is a no-op).
  bool empty() const { return num_rows_ == 0; }

  /// Words per row: BitmapWords(|V|) of the graph this was built for
  /// (0 for an empty default-constructed index).
  size_t words() const { return words_; }

  /// Bitmap of v's neighborhood, or nullptr when v has no row. v must be
  /// inside the graph the index was built for.
  const uint64_t* Row(VertexID v) const {
    const int64_t r = row_of_[v];
    return r < 0 ? nullptr : rows_.data() + static_cast<size_t>(r) * words_;
  }

  size_t num_rows() const { return num_rows_; }

  /// Bytes held by row storage plus the per-vertex row table.
  size_t MemoryBytes() const {
    return rows_.size() * sizeof(uint64_t) + row_of_.size() * sizeof(int64_t);
  }

 private:
  std::vector<int64_t> row_of_;  // per vertex: row number, or -1 for none
  std::vector<uint64_t> rows_;   // num_rows_ x words_ row-major bit matrix
  size_t words_ = 0;
  size_t num_rows_ = 0;
};

}  // namespace light

#endif  // LIGHT_GRAPH_BITMAP_INDEX_H_
