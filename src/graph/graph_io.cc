#include "graph/graph_io.h"

#include <unistd.h>

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "graph/graph_builder.h"

namespace light {
namespace {

constexpr char kMagic[4] = {'L', 'C', 'S', 'R'};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

uint64_t Align64(uint64_t x) { return (x + 63) & ~uint64_t{63}; }

/// Little-endian field writers/readers for the fixed 64-byte v2 header.
void Put32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }
void Put64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
uint32_t Get32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint64_t Get64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

Status LoadEdgeList(const std::string& path, Graph* out) {
  FilePtr file(std::fopen(path.c_str(), "r"));
  if (file == nullptr) {
    return Status::IOError("cannot open " + path);
  }
  GraphBuilder builder;
  char line[256];
  size_t lineno = 0;
  while (std::fgets(line, sizeof(line), file.get()) != nullptr) {
    ++lineno;
    const char* p = line;
    while (*p == ' ' || *p == '\t') ++p;
    if (*p == '#' || *p == '%' || *p == '\n' || *p == '\0') continue;
    uint64_t u = 0;
    uint64_t v = 0;
    if (std::sscanf(p, "%" SCNu64 " %" SCNu64, &u, &v) != 2) {
      return Status::InvalidArgument("malformed edge at " + path + ":" +
                                     std::to_string(lineno));
    }
    if (u > kInvalidVertex - 1 || v > kInvalidVertex - 1) {
      return Status::OutOfRange("vertex ID exceeds 32 bits at " + path + ":" +
                                std::to_string(lineno));
    }
    builder.AddEdge(static_cast<VertexID>(u), static_cast<VertexID>(v));
  }
  *out = builder.Build();
  return Status::OK();
}

Status SaveEdgeList(const Graph& graph, const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "w"));
  if (file == nullptr) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  const VertexID n = graph.NumVertices();
  for (VertexID u = 0; u < n; ++u) {
    for (VertexID v : graph.Neighbors(u)) {
      if (u < v) std::fprintf(file.get(), "%u %u\n", u, v);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// .lcsr2 store snapshots
// ---------------------------------------------------------------------------

Status ParseLcsr2Header(const uint8_t* data, uint64_t size,
                        const std::string& origin, Lcsr2Header* out) {
  if (size < kLcsr2HeaderBytes) {
    return Status::InvalidArgument("truncated .lcsr2 header in " + origin +
                                   " (" + std::to_string(size) + " bytes)");
  }
  if (std::memcmp(data, kMagic, 4) != 0) {
    return Status::InvalidArgument(origin + " is not an LCSR file");
  }
  const uint32_t version = Get32(data + 4);
  if (version != kLcsr2Version) {
    return Status::InvalidArgument("unsupported LCSR version " +
                                   std::to_string(version) + " in " + origin);
  }
  Lcsr2Header h;
  h.n = Get64(data + 8);
  h.slots = Get64(data + 16);
  h.max_degree = Get32(data + 24);
  h.flags = Get32(data + 28);
  h.offsets_off = Get64(data + 32);
  h.neighbors_off = Get64(data + 40);
  h.labels_off = Get64(data + 48);
  if ((h.flags & ~kLcsr2FlagLabels) != 0) {
    return Status::InvalidArgument("unknown .lcsr2 flags in " + origin);
  }
  if (h.n > kInvalidVertex - 1) {
    return Status::OutOfRange("vertex count exceeds 32 bits in " + origin);
  }
  // A file of `size` bytes cannot hold more than size/4 slots; rejecting
  // early keeps the section arithmetic below overflow-free.
  if (h.slots > size) {
    return Status::InvalidArgument("slot count exceeds file size in " +
                                   origin);
  }
  const bool labeled = (h.flags & kLcsr2FlagLabels) != 0;
  // Section layout: aligned, ordered, and inside the file. Each bound is
  // checked with overflow-safe arithmetic (size - off compared against the
  // section length) so a hostile header cannot wrap.
  const uint64_t offsets_bytes = (h.n + 1) * sizeof(EdgeID);
  const uint64_t neighbors_bytes = h.slots * sizeof(VertexID);
  const uint64_t labels_bytes = labeled ? h.n * sizeof(uint32_t) : 0;
  if (h.offsets_off % 64 != 0 || h.neighbors_off % 64 != 0 ||
      (labeled && h.labels_off % 64 != 0)) {
    return Status::InvalidArgument("misaligned .lcsr2 sections in " + origin);
  }
  if (h.offsets_off < kLcsr2HeaderBytes || h.offsets_off > size ||
      size - h.offsets_off < offsets_bytes) {
    return Status::InvalidArgument("offsets section out of range in " +
                                   origin);
  }
  if (h.neighbors_off < h.offsets_off + offsets_bytes ||
      h.neighbors_off > size || size - h.neighbors_off < neighbors_bytes) {
    return Status::InvalidArgument("neighbors section out of range in " +
                                   origin);
  }
  if (labeled && (h.labels_off < h.neighbors_off + neighbors_bytes ||
                  h.labels_off > size ||
                  size - h.labels_off < labels_bytes)) {
    return Status::InvalidArgument("labels section out of range in " + origin);
  }
  *out = h;
  return Status::OK();
}

Status ReadLcsr2Header(const std::string& path, Lcsr2Header* out) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::IOError("cannot open " + path);
  }
  if (std::fseek(file.get(), 0, SEEK_END) != 0) {
    return Status::IOError("cannot seek " + path);
  }
  const long end = std::ftell(file.get());
  if (end < 0) return Status::IOError("cannot stat " + path);
  std::rewind(file.get());
  uint8_t header[kLcsr2HeaderBytes] = {0};
  const size_t got = std::fread(header, 1, sizeof(header), file.get());
  return ParseLcsr2Header(header, got < sizeof(header)
                                      ? static_cast<uint64_t>(got)
                                      : static_cast<uint64_t>(end),
                          path, out);
}

namespace {

/// Writes the header and every section of an .lcsr2 snapshot to `file`,
/// then flushes and fsyncs it. `path` names the file in error messages.
Status WriteStoreSections(const Graph& graph,
                          const std::vector<uint32_t>* labels,
                          std::FILE* file, const std::string& path) {
  const uint64_t n = graph.NumVertices();
  const uint64_t slots = graph.NeighborsSpan().size();
  const uint64_t offsets_off = kLcsr2HeaderBytes;
  const uint64_t neighbors_off =
      Align64(offsets_off + (n + 1) * sizeof(EdgeID));
  const uint64_t labels_off =
      labels != nullptr ? Align64(neighbors_off + slots * sizeof(VertexID))
                        : 0;

  uint8_t header[kLcsr2HeaderBytes] = {0};
  std::memcpy(header, kMagic, 4);
  Put32(header + 4, kLcsr2Version);
  Put64(header + 8, n);
  Put64(header + 16, slots);
  Put32(header + 24, graph.MaxDegree());
  Put32(header + 28, labels != nullptr ? kLcsr2FlagLabels : 0);
  Put64(header + 32, offsets_off);
  Put64(header + 40, neighbors_off);
  Put64(header + 48, labels_off);

  const auto pad_to = [file](uint64_t target) {
    const long pos = std::ftell(file);
    if (pos < 0) return false;
    static constexpr uint8_t kZeros[64] = {0};
    uint64_t remaining = target - static_cast<uint64_t>(pos);
    while (remaining > 0) {
      const size_t chunk =
          remaining < sizeof(kZeros) ? static_cast<size_t>(remaining)
                                     : sizeof(kZeros);
      if (std::fwrite(kZeros, 1, chunk, file) != chunk) return false;
      remaining -= chunk;
    }
    return true;
  };

  bool ok = std::fwrite(header, 1, sizeof(header), file) == sizeof(header);
  // An empty Graph (default-constructed) has no offsets array; persist it as
  // n=0 with a single zero offset so the file round-trips.
  const EdgeID zero_offset = 0;
  const EdgeID* offsets_data =
      graph.OffsetsSpan().empty() ? &zero_offset : graph.OffsetsSpan().data();
  ok = ok && std::fwrite(offsets_data, sizeof(EdgeID), n + 1, file) == n + 1;
  ok = ok && pad_to(neighbors_off);
  if (ok && slots > 0) {
    ok = std::fwrite(graph.NeighborsSpan().data(), sizeof(VertexID), slots,
                     file) == slots;
  }
  if (ok && labels != nullptr) {
    ok = pad_to(labels_off);
    if (ok && n > 0) {
      ok = std::fwrite(labels->data(), sizeof(uint32_t), n, file) == n;
    }
  }
  if (!ok) return Status::IOError("short write to " + path);
  if (std::fflush(file) != 0 || ::fsync(::fileno(file)) != 0) {
    return Status::IOError("flush failed for " + path);
  }
  return Status::OK();
}

}  // namespace

Status SaveStoreFile(const Graph& graph, const std::string& path,
                     const std::vector<uint32_t>* labels) {
  const uint64_t n = graph.NumVertices();
  if (labels != nullptr && labels->size() != n) {
    return Status::InvalidArgument("label count " +
                                   std::to_string(labels->size()) +
                                   " does not match " + std::to_string(n) +
                                   " vertices");
  }
  // Write a sibling temp file and rename it over `path`: a reader that has
  // the old snapshot mapped keeps the old inode intact, and a fresh open
  // sees either the old or the new file, never a partial one.
  const std::string tmp_path = path + ".tmp." + std::to_string(::getpid());
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError("cannot open " + tmp_path + " for writing");
  }
  Status status = WriteStoreSections(graph, labels, file, tmp_path);
  if (std::fclose(file) != 0 && status.ok()) {
    status = Status::IOError("close failed for " + tmp_path);
  }
  if (status.ok() && std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    status = Status::IOError("cannot rename " + tmp_path + " to " + path);
  }
  if (!status.ok()) std::remove(tmp_path.c_str());
  return status;
}

Status LoadStoreFile(const std::string& path, Graph* out,
                     std::vector<uint32_t>* labels) {
  Lcsr2Header h;
  LIGHT_RETURN_IF_ERROR(ReadLcsr2Header(path, &h));
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::IOError("cannot open " + path);
  }
  std::vector<EdgeID> offsets(h.n + 1, 0);
  std::vector<VertexID> neighbors(h.slots);
  if (std::fseek(file.get(), static_cast<long>(h.offsets_off), SEEK_SET) !=
          0 ||
      std::fread(offsets.data(), sizeof(EdgeID), h.n + 1, file.get()) !=
          h.n + 1) {
    return Status::IOError("truncated offsets in " + path);
  }
  if (h.slots > 0 &&
      (std::fseek(file.get(), static_cast<long>(h.neighbors_off), SEEK_SET) !=
           0 ||
       std::fread(neighbors.data(), sizeof(VertexID), h.slots, file.get()) !=
           h.slots)) {
    return Status::IOError("truncated neighbors in " + path);
  }
  if (offsets.front() != 0 || offsets.back() != h.slots) {
    return Status::InvalidArgument("inconsistent CSR arrays in " + path);
  }
  if (labels != nullptr) {
    labels->clear();
    if ((h.flags & kLcsr2FlagLabels) != 0) {
      labels->resize(h.n);
      if (h.n > 0 &&
          (std::fseek(file.get(), static_cast<long>(h.labels_off),
                      SEEK_SET) != 0 ||
           std::fread(labels->data(), sizeof(uint32_t), h.n, file.get()) !=
               h.n)) {
        return Status::IOError("truncated labels in " + path);
      }
    }
  }
  *out = Graph(std::move(offsets), std::move(neighbors));
  return Status::OK();
}

Status SniffGraphFormat(const std::string& path, GraphFileFormat* out) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::IOError("cannot open " + path);
  }
  uint8_t head[256];
  const size_t got = std::fread(head, 1, sizeof(head), file.get());
  if (got == 0) {
    return Status::InvalidArgument(path + " is empty");
  }
  // Binary snapshot? The magic decides; a truncated or unknown-version
  // binary file (including the retired v1 layout) is an error, never an
  // edge list.
  if (got >= 1 && head[0] == 'L') {
    if (got < 8 || std::memcmp(head, kMagic, 4) != 0) {
      // Could still be a text file that happens to start with 'L' — an edge
      // list never does (lines start with digits, '#', or '%'), so reject.
      return Status::InvalidArgument(
          path + " is neither an LCSR snapshot nor an edge list");
    }
    const uint32_t version = Get32(head + 4);
    if (version == kLcsr2Version) {
      *out = GraphFileFormat::kLcsr2;
      return Status::OK();
    }
    return Status::InvalidArgument("unsupported LCSR version " +
                                   std::to_string(version) + " in " + path);
  }
  // Text edge list? Every sampled byte must be printable ASCII/whitespace.
  // Binary garbage (NUL bytes, control characters) is rejected up front so
  // it cannot silently parse as a zero-edge graph.
  for (size_t i = 0; i < got; ++i) {
    const uint8_t c = head[i];
    if (c == '\n' || c == '\r' || c == '\t') continue;
    if (c < 0x20 || c > 0x7E) {
      return Status::InvalidArgument(
          path + " is neither an LCSR snapshot nor a text edge list " +
          "(binary byte at offset " + std::to_string(i) + ")");
    }
  }
  *out = GraphFileFormat::kEdgeList;
  return Status::OK();
}

Status LoadAuto(const std::string& path, Graph* out) {
  GraphFileFormat format;
  LIGHT_RETURN_IF_ERROR(SniffGraphFormat(path, &format));
  switch (format) {
    case GraphFileFormat::kEdgeList:
      return LoadEdgeList(path, out);
    case GraphFileFormat::kLcsr2:
      return LoadStoreFile(path, out);
  }
  return Status::Internal("unreachable format");
}

}  // namespace light
