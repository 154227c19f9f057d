#include "pattern/automorphism.h"

#include "common/check.h"

namespace light {
namespace {

struct SearchState {
  const Pattern* pattern;
  Permutation image;       // image[u] = mapped vertex or -1
  uint32_t used = 0;       // bitmask of used images
  std::vector<Permutation>* out;
};

void Extend(SearchState& s, int u) {
  const Pattern& p = *s.pattern;
  const int n = p.NumVertices();
  if (u == n) {
    s.out->push_back(s.image);
    return;
  }
  for (int v = 0; v < n; ++v) {
    if ((s.used >> v) & 1u) continue;
    if (p.Degree(u) != p.Degree(v)) continue;
    // Labeled patterns: automorphisms must preserve labels, otherwise the
    // symmetry-breaking constraints would merge distinct labeled matches.
    if (p.Label(u) != p.Label(v)) continue;
    // Adjacency with every already-mapped vertex must be preserved both ways.
    bool ok = true;
    for (int w = 0; w < u; ++w) {
      if (p.HasEdge(u, w) != p.HasEdge(v, s.image[w])) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    s.image[u] = v;
    s.used |= 1u << v;
    Extend(s, u + 1);
    s.used &= ~(1u << v);
    s.image[u] = -1;
  }
}

}  // namespace

std::vector<Permutation> FindAutomorphisms(const Pattern& pattern) {
  LIGHT_CHECK(pattern.NumVertices() >= 1);
  std::vector<Permutation> result;
  SearchState s;
  s.pattern = &pattern;
  s.image.assign(static_cast<size_t>(pattern.NumVertices()), -1);
  s.out = &result;
  Extend(s, 0);
  return result;
}

}  // namespace light
