#ifndef LIGHT_GRAPH_GRAPH_IO_H_
#define LIGHT_GRAPH_GRAPH_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace light {

/// Loads a whitespace-separated edge-list text file ("u v" per line; lines
/// starting with '#' or '%' are comments). This is the format SNAP and
/// KONECT distribute the paper's datasets in.
Status LoadEdgeList(const std::string& path, Graph* out);

/// Writes a graph as an edge-list text file (one canonical "u v" with u < v
/// per undirected edge).
Status SaveEdgeList(const Graph& graph, const std::string& path);

// ---------------------------------------------------------------------------
// .lcsr2 store snapshots (LCSR v2): the GraphStore on-disk format. One
// 64-byte header followed by 64-byte-aligned sections, so every section can
// be mmap'd with natural alignment and the offsets array starts on a page-
// friendly boundary:
//
//   [ 0, 64)  header: magic "LCSR" | u32 version=2 | u64 n | u64 slots |
//             u32 max_degree | u32 flags (bit0 = labels section present) |
//             u64 offsets_off | u64 neighbors_off | u64 labels_off |
//             u64 reserved (zero)
//   [offsets_off,   +(n+1)*8)  EdgeID offsets, offsets[0]=0, monotone
//   [neighbors_off, +slots*4)  VertexID adjacency, sorted per vertex
//   [labels_off,    +n*4)      u32 per-vertex labels (flags bit0 only)
// ---------------------------------------------------------------------------

inline constexpr uint32_t kLcsr2Version = 2;
inline constexpr uint32_t kLcsr2HeaderBytes = 64;
inline constexpr uint32_t kLcsr2FlagLabels = 1u << 0;

struct Lcsr2Header {
  uint64_t n = 0;
  uint64_t slots = 0;
  uint32_t max_degree = 0;
  uint32_t flags = 0;
  uint64_t offsets_off = 0;
  uint64_t neighbors_off = 0;
  uint64_t labels_off = 0;
};

/// Parses and validates a v2 header against the file size: magic/version,
/// section offsets in range, 64-byte aligned, and non-overlapping. `origin`
/// names the file in error messages.
Status ParseLcsr2Header(const uint8_t* data, uint64_t size,
                        const std::string& origin, Lcsr2Header* out);

/// Reads the header (and nothing else) from an .lcsr2 file on disk.
Status ReadLcsr2Header(const std::string& path, Lcsr2Header* out);

/// Writes `graph` (plus optional per-vertex labels) as an .lcsr2 snapshot.
/// Works for borrowed graphs too — only the span accessors are touched.
/// The bytes go to a temp file in the same directory, are fsynced, and are
/// renamed over `path`, so a process that has the old file mapped keeps
/// reading the old snapshot and `path` never holds a partial file.
Status SaveStoreFile(const Graph& graph, const std::string& path,
                     const std::vector<uint32_t>* labels = nullptr);

/// Fully loads an .lcsr2 snapshot's CSR arrays to the heap (labels stay on
/// disk; a GraphStore serves them).
Status LoadStoreFile(const std::string& path, Graph* out);

/// On-disk graph formats LoadAuto distinguishes.
enum class GraphFileFormat {
  kEdgeList,  // whitespace text edge list
  kLcsr2,     // store snapshot (SaveStoreFile)
};

/// Sniffs the format from the leading bytes: "LCSR" magic with version 2
/// selects a store snapshot, printable text selects an edge list. Truncated
/// magic, other versions (the retired v1 layout included), and binary
/// garbage are structured errors — never silently misparsed as an edge
/// list.
Status SniffGraphFormat(const std::string& path, GraphFileFormat* out);

/// Loads any supported on-disk format into a heap graph, sniffing first, so
/// every tool flag that accepts an edge list also accepts binary snapshots.
Status LoadAuto(const std::string& path, Graph* out);

}  // namespace light

#endif  // LIGHT_GRAPH_GRAPH_IO_H_
