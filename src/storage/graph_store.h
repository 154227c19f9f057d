#ifndef LIGHT_STORAGE_GRAPH_STORE_H_
#define LIGHT_STORAGE_GRAPH_STORE_H_

/// GraphStore: the one storage engine behind the serving seam. A store is
/// an immutable CSR snapshot (graph/graph_io.h's .lcsr2 format) opened in
/// one of two modes:
///
///   kHeap  — the file is read whole into private anonymous memory and the
///            CSR sections are used in place. Highest throughput, O(file)
///            open cost, private memory per process, and closing it gives
///            the memory straight back (no malloc heap in between).
///   kMmap  — the file is mapped read-only and the CSR sections are used in
///            place: open is instant (only the offsets array is touched for
///            validation), adjacency faults in on demand, and every Session
///            and process serving the same snapshot shares one copy in the
///            page cache. For graphs bigger than memory the kernel page
///            cache does the out-of-core work (Silvestri's I/O framing,
///            arXiv:1402.3444 — index resident, data faulted).
///
/// Both hand the engine a resident CSR through the same Graph/GraphView, so
/// the engine, bitmap index, fuzz oracles, and serving stack are mode-blind.
/// Stores are shared immutable objects (std::shared_ptr<const GraphStore>);
/// they are non-copyable and non-movable by design — the DiskGraph
/// defaulted-move bug (null pool dereference on the moved-from object) is
/// structurally impossible here.

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/lock_ranks.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "graph/bitmap_index.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "storage/mmap_region.h"

namespace light {

class GraphStore {
 public:
  enum class Mode { kHeap, kMmap };

  struct OpenOptions {
    Mode mode = Mode::kMmap;
  };

  /// Opens a snapshot. kMmap requires an .lcsr2 file; kHeap accepts
  /// anything LoadAuto can sniff (edge list or .lcsr2), so every tool can
  /// take one --graph-store flag regardless of mode.
  static Status Open(const std::string& path, const OpenOptions& options,
                     std::shared_ptr<const GraphStore>* out);

  /// Wraps an already-built in-memory graph as a heap-mode store (no file).
  /// For callers composing a Session around a generated graph.
  static std::shared_ptr<const GraphStore> FromGraph(Graph graph);

  ~GraphStore() = default;
  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  Mode mode() const { return mode_; }
  const std::string& path() const { return path_; }

  /// The mode-blind engine seam.
  GraphView view() const { return GraphView(graph_); }

  /// The backing Graph (borrowing the region; owning for an edge list or
  /// FromGraph). Never null.
  const Graph* graph() const { return &graph_; }

  VertexID NumVertices() const { return graph_.NumVertices(); }
  EdgeID NumEdges() const { return graph_.NumEdges(); }
  uint32_t MaxDegree() const { return graph_.MaxDegree(); }

  /// Per-vertex labels from the snapshot (empty when the file has none).
  std::span<const uint32_t> labels() const { return labels_; }

  /// Bytes of the file currently mapped into this process (mmap mode; 0
  /// otherwise) — the store.bytes_mapped counter.
  uint64_t bytes_mapped() const {
    return mode_ == Mode::kMmap && region_ != nullptr ? region_->size() : 0;
  }

  /// Lazily builds (once per distinct options) and shares a BitmapIndex
  /// over this store. Concurrent Sessions asking for the same options get
  /// the same index — this is what "two Sessions share one mmap store"
  /// means for the hybrid fast path.
  std::shared_ptr<const BitmapIndex> SharedBitmap(
      const BitmapIndexOptions& options) const LIGHT_EXCLUDES(bitmap_mutex_);

  /// Number of distinct bitmap configurations cached (tests assert sharing
  /// by checking this stays 1 across Sessions).
  size_t bitmap_cache_size() const LIGHT_EXCLUDES(bitmap_mutex_);

  static const char* ModeName(Mode mode);
  /// Parses "heap" | "mmap" (tool flags); anything else returns false.
  static bool ParseMode(const std::string& name, Mode* out);

 private:
  GraphStore() = default;

  Mode mode_ = Mode::kHeap;
  std::string path_;

  // A snapshot: graph borrowed over region_ (the file's mapping in kMmap,
  // its private copy in kHeap). An edge list or FromGraph: owning graph.
  Graph graph_;
  std::unique_ptr<MmapRegion> region_;

  // A view into region_; empty when the snapshot has no labels.
  std::span<const uint32_t> labels_;

  // Shared bitmap cache, keyed by the build options. Rank 54 sits above
  // the task queue (50) and below the obs registries (70) the bitmap build
  // publishes into.
  mutable Mutex bitmap_mutex_{lockrank::kStoreBitmap,
                              "GraphStore::bitmap_mutex_"};
  mutable std::map<std::pair<uint32_t, uint64_t>,
                   std::shared_ptr<const BitmapIndex>>
      bitmap_cache_ LIGHT_GUARDED_BY(bitmap_mutex_);
};

}  // namespace light

#endif  // LIGHT_STORAGE_GRAPH_STORE_H_
