#include "storage/graph_store.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "graph/graph_io.h"
#include "obs/metrics.h"

namespace light {
namespace {

/// Validates the resident offsets array against the header: monotone,
/// starts at zero, ends at `slots`, and no degree exceeds the header's
/// max_degree. O(N) over resident data; adjacency is never touched, so
/// opening an mmap store stays independent of |E|.
Status ValidateOffsets(const EdgeID* offsets, uint64_t n, uint64_t slots,
                       uint32_t max_degree, const std::string& origin) {
  if (offsets[0] != 0) {
    return Status::InvalidArgument("offsets[0] != 0 in " + origin);
  }
  uint32_t seen_max = 0;
  for (uint64_t v = 0; v < n; ++v) {
    if (offsets[v + 1] < offsets[v]) {
      return Status::InvalidArgument("non-monotone offsets in " + origin);
    }
    const uint64_t degree = offsets[v + 1] - offsets[v];
    if (degree > slots) {
      return Status::InvalidArgument("degree exceeds slot count in " +
                                     origin);
    }
    seen_max = std::max(seen_max, static_cast<uint32_t>(degree));
  }
  if (offsets[n] != slots) {
    return Status::InvalidArgument("offsets[n] != slots in " + origin);
  }
  if (seen_max != max_degree) {
    return Status::InvalidArgument("max_degree header mismatch in " + origin +
                                   " (header " + std::to_string(max_degree) +
                                   ", offsets say " +
                                   std::to_string(seen_max) + ")");
  }
  return Status::OK();
}

void PublishOpenCounters(const GraphStore& store) {
  if (!obs::MetricsEnabled()) return;
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  registry.GetCounter("store.opened")->Inc();
  registry
      .GetCounter(std::string("store.mode.") +
                  GraphStore::ModeName(store.mode()))
      ->Inc();
  if (store.bytes_mapped() > 0) {
    registry.GetCounter("store.bytes_mapped")->Inc(store.bytes_mapped());
  }
}

}  // namespace

Status GraphStore::Open(const std::string& path, const OpenOptions& options,
                        std::shared_ptr<const GraphStore>* out) {
  auto store = std::shared_ptr<GraphStore>(new GraphStore());
  store->mode_ = options.mode;
  store->path_ = path;

  if (options.mode == Mode::kHeap) {
    // Heap mode accepts any sniffable on-disk format; labels only exist in
    // .lcsr2 snapshots.
    GraphFileFormat format;
    LIGHT_RETURN_IF_ERROR(SniffGraphFormat(path, &format));
    Graph graph;
    if (format == GraphFileFormat::kLcsr2) {
      LIGHT_RETURN_IF_ERROR(
          LoadStoreFile(path, &graph, &store->owned_labels_));
    } else {
      LIGHT_RETURN_IF_ERROR(LoadAuto(path, &graph));
    }
    store->graph_ = std::move(graph);
    store->labels_ = store->owned_labels_;
    *out = std::move(store);
    PublishOpenCounters(**out);
    return Status::OK();
  }

  // mmap mode requires the v2 layout (aligned, mappable sections).
  LIGHT_CHECK(options.mode == Mode::kMmap);
  std::unique_ptr<MmapRegion> region;
  LIGHT_RETURN_IF_ERROR(MmapRegion::Open(path, &region));
  Lcsr2Header header;
  LIGHT_RETURN_IF_ERROR(
      ParseLcsr2Header(region->data(), region->size(), path, &header));
  const EdgeID* offsets =
      reinterpret_cast<const EdgeID*>(region->data() + header.offsets_off);
  const VertexID* neighbors = reinterpret_cast<const VertexID*>(
      region->data() + header.neighbors_off);
  // Offsets stay resident (willneed); adjacency faults in on demand with
  // random-access locality.
  region->AdviseWillNeed(header.offsets_off,
                         (header.n + 1) * sizeof(EdgeID));
  region->AdviseRandom(header.neighbors_off,
                       header.slots * sizeof(VertexID));
  LIGHT_RETURN_IF_ERROR(ValidateOffsets(offsets, header.n, header.slots,
                                        header.max_degree, path));
  store->region_ = std::move(region);
  store->graph_ = Graph::External(
      offsets, header.slots > 0 ? neighbors : nullptr,
      static_cast<VertexID>(header.n), header.slots, header.max_degree);
  if ((header.flags & kLcsr2FlagLabels) != 0) {
    store->labels_ = {reinterpret_cast<const uint32_t*>(
                          store->region_->data() + header.labels_off),
                      static_cast<size_t>(header.n)};
  }
  *out = std::move(store);
  PublishOpenCounters(**out);
  return Status::OK();
}

std::shared_ptr<const GraphStore> GraphStore::FromGraph(Graph graph) {
  auto store = std::shared_ptr<GraphStore>(new GraphStore());
  store->mode_ = Mode::kHeap;
  store->path_ = "<memory>";
  store->graph_ = std::move(graph);
  return store;
}

std::shared_ptr<const BitmapIndex> GraphStore::SharedBitmap(
    const BitmapIndexOptions& options) const {
  const std::pair<uint32_t, uint64_t> key(options.min_degree,
                                          options.max_bytes);
  MutexLock lock(bitmap_mutex_);
  auto it = bitmap_cache_.find(key);
  if (it != bitmap_cache_.end()) return it->second;
  // Built under the lock: concurrent Sessions asking for the same options
  // wait for (and then share) one build instead of racing duplicates.
  auto index = std::make_shared<BitmapIndex>(BitmapIndex::Build(view(),
                                                                options));
  bitmap_cache_.emplace(key, index);
  return index;
}

size_t GraphStore::bitmap_cache_size() const {
  MutexLock lock(bitmap_mutex_);
  return bitmap_cache_.size();
}

const char* GraphStore::ModeName(Mode mode) {
  switch (mode) {
    case Mode::kHeap:
      return "heap";
    case Mode::kMmap:
      return "mmap";
  }
  return "unknown";
}

bool GraphStore::ParseMode(const std::string& name, Mode* out) {
  if (name == "heap") {
    *out = Mode::kHeap;
    return true;
  }
  if (name == "mmap") {
    *out = Mode::kMmap;
    return true;
  }
  return false;
}

}  // namespace light
