#include "fuzz/fuzz.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "pattern/parse.h"

namespace light::fuzz {
namespace {

constexpr char kHeader[] = "light_fuzz_artifact v1";

std::string FormatDouble(double v) {
  if (std::isinf(v)) return "inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string FormatArtifact(const FuzzCase& c, const OracleOutcome& outcome) {
  std::ostringstream s;
  s << kHeader << '\n';
  s << "# " << c.Describe() << '\n';
  s << "# replay: light_fuzz --replay <this file>\n";
  s << "seed " << c.seed << '\n';
  s << "graph " << c.num_vertices << ' ' << c.edges.size() << '\n';
  for (const auto& [u, v] : c.edges) s << "edge " << u << ' ' << v << '\n';
  s << "pattern " << FormatPattern(c.pattern) << '\n';
  if (c.Labeled()) {
    s << "labels";
    for (uint32_t l : c.labels) s << ' ' << l;
    s << '\n';
  }
  s << "kernel " << KernelName(c.kernel) << '\n';
  s << "symmetry " << (c.symmetry_breaking ? 1 : 0) << '\n';
  s << "threads " << c.parallel.num_threads << '\n';
  s << "time_limit " << FormatDouble(c.parallel.time_limit_seconds) << '\n';
  s << "min_split " << c.parallel.min_split_size << '\n';
  s << "donation_interval " << c.parallel.donation_check_interval << '\n';
  s << "chunks_per_worker " << c.parallel.initial_chunks_per_worker << '\n';
  s << "bitmap_threshold ";
  if (c.bitmap_min_degree == kBitmapDegreeNever) {
    s << "never";
  } else {
    s << c.bitmap_min_degree;
  }
  s << '\n';
  // Observed counts are informational (ParseArtifact skips them): they record
  // what diverged at dump time without constraining the replay.
  for (const EngineCount& e : outcome.engines) {
    s << "# count " << e.name << ' ';
    if (e.skipped) {
      s << "skipped " << e.note;
    } else {
      s << e.count;
    }
    s << '\n';
  }
  return s.str();
}

Status ParseArtifact(const std::string& text, FuzzCase* out) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    return Status::InvalidArgument(
        "not a light_fuzz artifact (missing '" + std::string(kHeader) + "')");
  }
  *out = FuzzCase();
  uint64_t expected_edges = 0;
  bool saw_graph = false;
  bool saw_pattern = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "seed") {
      fields >> out->seed;
    } else if (key == "graph") {
      fields >> out->num_vertices >> expected_edges;
      saw_graph = true;
    } else if (key == "edge") {
      VertexID u = 0, v = 0;
      if (!(fields >> u >> v)) {
        return Status::InvalidArgument("malformed edge line: " + line);
      }
      if (u >= out->num_vertices || v >= out->num_vertices) {
        return Status::InvalidArgument("edge endpoint out of range: " + line);
      }
      out->edges.emplace_back(u, v);
    } else if (key == "pattern") {
      std::string spec;
      fields >> spec;
      if (Status s = ParsePattern(spec, &out->pattern); !s.ok()) return s;
      saw_pattern = true;
    } else if (key == "labels") {
      uint32_t l = 0;
      while (fields >> l) out->labels.push_back(l);
    } else if (key == "kernel") {
      std::string name;
      fields >> name;
      const std::optional<IntersectKernel> kernel = KernelFromName(name);
      if (!kernel) return Status::InvalidArgument("unknown kernel: " + name);
      out->kernel = *kernel;
    } else if (key == "symmetry") {
      int v = 1;
      fields >> v;
      out->symmetry_breaking = v != 0;
    } else if (key == "threads") {
      fields >> out->parallel.num_threads;
    } else if (key == "time_limit") {
      std::string v;
      fields >> v;
      out->parallel.time_limit_seconds =
          v == "inf" ? std::numeric_limits<double>::infinity()
                     : std::strtod(v.c_str(), nullptr);
    } else if (key == "min_split") {
      fields >> out->parallel.min_split_size;
    } else if (key == "donation_interval") {
      fields >> out->parallel.donation_check_interval;
    } else if (key == "chunks_per_worker") {
      fields >> out->parallel.initial_chunks_per_worker;
    } else if (key == "bitmap_threshold") {
      // Absent in pre-bitmap artifacts; the FuzzCase default ("never")
      // replays them as pure-array runs, exactly as originally observed.
      std::string v;
      fields >> v;
      out->bitmap_min_degree =
          v == "never"
              ? kBitmapDegreeNever
              : static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else {
      return Status::InvalidArgument("unknown artifact key: " + key);
    }
  }
  if (!saw_graph || !saw_pattern) {
    return Status::InvalidArgument("artifact missing graph or pattern");
  }
  if (out->edges.size() != expected_edges) {
    return Status::InvalidArgument(
        "edge count mismatch: header says " + std::to_string(expected_edges) +
        ", found " + std::to_string(out->edges.size()));
  }
  if (!out->labels.empty() && out->labels.size() != out->num_vertices) {
    return Status::InvalidArgument("labels line must have one entry per vertex");
  }
  return Status::OK();
}

Status WriteArtifact(const FuzzCase& c, const OracleOutcome& outcome,
                     const std::string& path) {
  std::ofstream f(path);
  if (!f) return Status::IOError("cannot open artifact output " + path);
  f << FormatArtifact(c, outcome);
  f.close();
  if (!f) return Status::IOError("short write to " + path);
  return Status::OK();
}

Status LoadArtifact(const std::string& path, FuzzCase* out) {
  std::ifstream f(path);
  if (!f) return Status::IOError("cannot open artifact " + path);
  std::ostringstream buffer;
  buffer << f.rdbuf();
  return ParseArtifact(buffer.str(), out);
}

}  // namespace light::fuzz
