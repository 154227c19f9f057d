#include "pattern/parse.h"

#include <algorithm>
#include <cctype>
#include <utility>
#include <vector>

namespace light {
namespace {

// Parses a non-negative integer at *pos, advancing it. Returns -1 on error.
// std::isdigit needs an unsigned char value: bytes >= 0x80 are negative as
// plain char, which is undefined behaviour.
int64_t ParseInt(const std::string& text, size_t* pos) {
  const auto digit_at = [&](size_t i) {
    return i < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[i])) != 0;
  };
  if (!digit_at(*pos)) return -1;
  int64_t value = 0;
  while (digit_at(*pos)) {
    value = value * 10 + (text[*pos] - '0');
    if (value > 1'000'000) return -1;
    ++(*pos);
  }
  return value;
}

}  // namespace

Status ParsePattern(const std::string& text, Pattern* out) {
  const size_t semicolon = text.find(';');
  const std::string edges_part = text.substr(0, semicolon);
  const std::string labels_part =
      semicolon == std::string::npos ? "" : text.substr(semicolon + 1);

  std::vector<std::pair<int, int>> edges;
  int max_vertex = -1;
  size_t pos = 0;
  while (pos < edges_part.size()) {
    const int64_t a = ParseInt(edges_part, &pos);
    if (a < 0 || pos >= edges_part.size() || edges_part[pos] != '-') {
      return Status::InvalidArgument("expected 'u-v' at position " +
                                     std::to_string(pos) + " of \"" + text +
                                     "\"");
    }
    ++pos;  // '-'
    const int64_t b = ParseInt(edges_part, &pos);
    if (b < 0) {
      return Status::InvalidArgument("bad edge endpoint in \"" + text + "\"");
    }
    if (a == b) {
      return Status::InvalidArgument("self-loop in pattern \"" + text + "\"");
    }
    if (a >= kMaxPatternVertices || b >= kMaxPatternVertices) {
      return Status::OutOfRange("pattern vertex index above " +
                                std::to_string(kMaxPatternVertices - 1));
    }
    edges.emplace_back(static_cast<int>(a), static_cast<int>(b));
    max_vertex = std::max({max_vertex, static_cast<int>(a),
                           static_cast<int>(b)});
    if (pos < edges_part.size()) {
      if (edges_part[pos] != ',') {
        return Status::InvalidArgument("expected ',' between edges in \"" +
                                       text + "\"");
      }
      ++pos;
      if (pos == edges_part.size()) {
        return Status::InvalidArgument("trailing ',' in \"" + text + "\"");
      }
    }
  }
  if (edges.empty()) {
    return Status::InvalidArgument("pattern has no edges: \"" + text + "\"");
  }
  Pattern pattern = Pattern::FromEdges(max_vertex + 1, edges);

  pos = 0;
  while (pos < labels_part.size()) {
    const int64_t u = ParseInt(labels_part, &pos);
    if (u < 0 || u > max_vertex || pos >= labels_part.size() ||
        labels_part[pos] != ':') {
      return Status::InvalidArgument("expected 'u:label' in \"" + text +
                                     "\"");
    }
    ++pos;  // ':'
    const int64_t label = ParseInt(labels_part, &pos);
    if (label < 0) {
      return Status::InvalidArgument("bad label in \"" + text + "\"");
    }
    pattern.SetLabel(static_cast<int>(u), static_cast<uint32_t>(label));
    if (pos < labels_part.size()) {
      if (labels_part[pos] != ',') {
        return Status::InvalidArgument("expected ',' between labels in \"" +
                                       text + "\"");
      }
      ++pos;
      if (pos == labels_part.size()) {
        return Status::InvalidArgument("trailing ',' in \"" + text + "\"");
      }
    }
  }
  *out = std::move(pattern);
  return Status::OK();
}

std::string FormatPattern(const Pattern& pattern) {
  std::string out;
  for (const auto& [a, b] : pattern.Edges()) {
    if (!out.empty()) out += ",";
    out += std::to_string(a) + "-" + std::to_string(b);
  }
  if (pattern.HasLabels()) {
    out += ";";
    bool first = true;
    for (int u = 0; u < pattern.NumVertices(); ++u) {
      if (pattern.Label(u) == 0) continue;
      if (!first) out += ",";
      first = false;
      out += std::to_string(u) + ":" + std::to_string(pattern.Label(u));
    }
  }
  return out;
}

}  // namespace light
