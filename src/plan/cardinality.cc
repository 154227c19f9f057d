#include "plan/cardinality.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "intersect/multiway.h"

namespace light {
namespace {

// Cache key over (pattern shape, mask, constraints induced on the mask).
// Patterns are tiny, so hashing the adjacency words is exact enough in
// practice for a performance cache; a collision would only perturb a cost
// estimate. Without constraints the key is the plain (shape, mask) key.
uint64_t CacheKey(const Pattern& pattern, uint32_t mask,
                  const PartialOrder& induced) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ mask;
  for (int u = 0; u < pattern.NumVertices(); ++u) {
    h ^= pattern.NeighborMask(u) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  for (const auto& [a, b] : induced) {
    const uint64_t c = static_cast<uint64_t>(a) << 8 | static_cast<uint64_t>(b);
    h ^= c + 1 + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

// Relabelings tried per canonical form; beyond this the sorted-by-invariant
// labeling is used as is. Its code still describes the sub-problem exactly,
// so equal codes stay isomorphic; only the sharing is lost.
constexpr uint64_t kMaxRelabelings = 5040;

// Canonical form of a connected component with constraints: its vertices
// renumbered 0..s-1 so that the code (per vertex: adjacency bits, then the
// bits of the vertices it is constrained below) is lexicographically least
// among the relabelings that keep vertices sorted by (degree, constraints
// above, constraints below). Writes the relabeled sub-problem and returns a
// hash of its code.
uint64_t CanonicalComponent(const Pattern& pattern, uint32_t component,
                            const PartialOrder& constraints, Pattern* out,
                            PartialOrder* out_constraints) {
  std::array<uint32_t, kMaxPatternVertices> below{};  // u < v bits, by u
  std::array<uint64_t, kMaxPatternVertices> invariant{};
  std::vector<int> perm;
  for (uint32_t c = component; c != 0; c &= c - 1) {
    perm.push_back(__builtin_ctz(c));
  }
  for (const auto& [a, b] : constraints) {
    below[static_cast<size_t>(a)] |= 1u << b;
  }
  for (int u : perm) {
    uint64_t above = 0;
    for (const auto& [a, b] : constraints) above += b == u ? 1 : 0;
    const uint64_t degree = static_cast<uint64_t>(
        __builtin_popcount(pattern.NeighborMask(u) & component));
    const uint64_t num_below = static_cast<uint64_t>(
        __builtin_popcount(below[static_cast<size_t>(u)]));
    invariant[static_cast<size_t>(u)] = degree << 32 | above << 16 | num_below;
  }
  std::stable_sort(perm.begin(), perm.end(), [&](int x, int y) {
    return invariant[static_cast<size_t>(x)] <
           invariant[static_cast<size_t>(y)];
  });
  const size_t s = perm.size();
  // Classes: runs of equal invariant; relabelings permute within a class.
  std::vector<size_t> class_begin{0};
  uint64_t relabelings = 1;
  for (size_t i = 1; i <= s; ++i) {
    if (i == s || invariant[static_cast<size_t>(perm[i])] !=
                      invariant[static_cast<size_t>(perm[i - 1])]) {
      for (size_t f = 2; f <= i - class_begin.back(); ++f) {
        relabelings = std::min(relabelings * f, kMaxRelabelings + 1);
      }
      class_begin.push_back(i);
    }
  }
  const auto encode = [&](const std::vector<int>& order) {
    std::array<int, kMaxPatternVertices> position{};
    for (size_t i = 0; i < s; ++i) {
      position[static_cast<size_t>(order[i])] = static_cast<int>(i);
    }
    const auto remap = [&](uint32_t bits) {
      uint32_t out_bits = 0;
      for (; bits != 0; bits &= bits - 1) {
        out_bits |= 1u << position[static_cast<size_t>(__builtin_ctz(bits))];
      }
      return out_bits;
    };
    std::vector<uint64_t> code(s);
    for (size_t i = 0; i < s; ++i) {
      const int u = order[i];
      code[i] =
          static_cast<uint64_t>(remap(pattern.NeighborMask(u) & component))
              << 32 |
          remap(below[static_cast<size_t>(u)]);
    }
    return code;
  };
  std::vector<uint64_t> best = encode(perm);
  if (relabelings <= kMaxRelabelings) {
    // Odometer over the within-class permutations (each class starts in
    // ascending order, and next_permutation restores it on wrap-around).
    for (;;) {
      size_t c = class_begin.size() - 1;
      while (c > 0 && !std::next_permutation(
                          perm.begin() + static_cast<long>(class_begin[c - 1]),
                          perm.begin() + static_cast<long>(class_begin[c]))) {
        --c;
      }
      if (c == 0) break;
      std::vector<uint64_t> code = encode(perm);
      if (code < best) best = std::move(code);
    }
  }
  *out = Pattern(static_cast<int>(s));
  out_constraints->clear();
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ s;
  for (size_t i = 0; i < s; ++i) {
    // Each edge once, from its smaller endpoint.
    const uint32_t later = ~((2u << i) - 1);
    for (uint32_t adj = static_cast<uint32_t>(best[i] >> 32) & later; adj != 0;
         adj &= adj - 1) {
      out->AddEdge(static_cast<int>(i), __builtin_ctz(adj));
    }
    for (uint32_t lt = static_cast<uint32_t>(best[i]); lt != 0; lt &= lt - 1) {
      out_constraints->emplace_back(static_cast<int>(i), __builtin_ctz(lt));
    }
    h ^= best[i] + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace

CardinalityEstimator::CardinalityEstimator(const GraphStats& stats)
    : n_(static_cast<double>(stats.num_vertices)),
      two_m_(2.0 * static_cast<double>(stats.num_edges)),
      rng_(0x5eed) {
  const double d_avg = std::max(stats.avg_degree, 1e-9);
  const double d_nbr = std::max(stats.avg_neighbor_degree, d_avg);
  extend_ = std::sqrt(d_avg * d_nbr);
  close_ = std::min(1.0, d_avg / std::max(n_, 1.0));
}

CardinalityEstimator::CardinalityEstimator(const Graph& graph,
                                           const GraphStats& stats,
                                           int num_samples, uint64_t seed)
    : CardinalityEstimator(stats) {
  LIGHT_CHECK(num_samples > 0);
  graph_ = &graph;
  num_samples_ = num_samples;
  rng_ = Rng(seed);
}

double CardinalityEstimator::EstimateMatches(
    const Pattern& pattern, uint32_t mask,
    const PartialOrder& restrictions) const {
  if (mask == 0) return 1.0;
  // Only constraints with both endpoints bound are checked at this prefix;
  // the analytic mode has no restricted model.
  PartialOrder induced;
  if (graph_ != nullptr) {
    for (const auto& [a, b] : restrictions) {
      if (((mask >> a) & 1u) != 0 && ((mask >> b) & 1u) != 0) {
        induced.emplace_back(a, b);
      }
    }
  }
  const uint64_t key = CacheKey(pattern, mask, induced);
  if (const auto it = cache_.find(key); it != cache_.end()) {
    return it->second;
  }
  double estimate = 1.0;
  uint32_t remaining = mask;
  PartialOrder inside;
  while (remaining != 0) {
    const int start = __builtin_ctz(remaining);
    // Connected component of `start` within the mask.
    uint32_t component = 1u << start;
    for (;;) {
      uint32_t grown = component;
      uint32_t c = component;
      while (c != 0) {
        const int u = __builtin_ctz(c);
        c &= c - 1;
        grown |= pattern.NeighborMask(u) & mask;
      }
      if (grown == component) break;
      component = grown;
    }
    inside.clear();
    for (const auto& [a, b] : induced) {
      const bool has_a = ((component >> a) & 1u) != 0;
      const bool has_b = ((component >> b) & 1u) != 0;
      if (has_a && has_b) {
        inside.emplace_back(a, b);
      } else if (has_a) {
        estimate *= 0.5;  // a constraint across two components
      }
    }
    if (__builtin_popcount(component) == 1) {
      estimate *= n_;
    } else if (graph_ == nullptr) {
      estimate *= AnalyticEstimate(pattern, component);
    } else if (inside.empty()) {
      estimate *= SampleComponent(pattern, component, inside);
    } else {
      estimate *= RestrictedComponent(pattern, component, inside);
    }
    remaining &= ~component;
  }
  cache_.emplace(key, estimate);
  return estimate;
}

double CardinalityEstimator::EstimateMatches(const Pattern& pattern) const {
  const int n = pattern.NumVertices();
  LIGHT_CHECK(n >= 1);
  const uint32_t mask = n == 32 ? ~0u : (1u << n) - 1;
  return EstimateMatches(pattern, mask);
}

double CardinalityEstimator::AnalyticEstimate(const Pattern& pattern,
                                              uint32_t component) const {
  // Build the component edge by edge from its lowest vertex; extensions
  // multiply by extend_, closings by close_, the first edge by 2M.
  double estimate = 1.0;
  const int start = __builtin_ctz(component);
  uint32_t built = 1u << start;
  bool first_edge = true;
  bool grew = true;
  while (grew) {
    grew = false;
    for (int u = 0; u < pattern.NumVertices(); ++u) {
      if (((built >> u) & 1u) == 0) continue;
      uint32_t frontier = pattern.NeighborMask(u) & component & ~built;
      while (frontier != 0) {
        const int v = __builtin_ctz(frontier);
        frontier &= frontier - 1;
        if (first_edge) {
          estimate *= two_m_;
          first_edge = false;
        } else {
          estimate *= extend_;
        }
        const int closing = __builtin_popcount(pattern.NeighborMask(v) &
                                               built & ~(1u << u));
        for (int c = 0; c < closing; ++c) estimate *= close_;
        built |= 1u << v;
        grew = true;
      }
    }
  }
  return estimate;
}

double CardinalityEstimator::RestrictedComponent(
    const Pattern& pattern, uint32_t component,
    const PartialOrder& constraints) const {
  Pattern canonical;
  PartialOrder canonical_constraints;
  const uint64_t key = CanonicalComponent(pattern, component, constraints,
                                          &canonical, &canonical_constraints);
  if (const auto it = canonical_cache_.find(key);
      it != canonical_cache_.end()) {
    return it->second;
  }
  const int s = canonical.NumVertices();
  const uint32_t all = s == 32 ? ~0u : (1u << s) - 1;
  const double estimate =
      SampleComponent(canonical, all, canonical_constraints);
  canonical_cache_.emplace(key, estimate);
  return estimate;
}

double CardinalityEstimator::SampleComponent(
    const Pattern& pattern, uint32_t component,
    const PartialOrder& constraints) const {
  const Graph& graph = *graph_;
  const size_t k = static_cast<size_t>(num_samples_);

  // Vertex construction order: BFS from the lowest vertex of the component.
  std::vector<int> order;
  uint32_t built = 0;
  {
    const int start = __builtin_ctz(component);
    order.push_back(start);
    built = 1u << start;
    while (true) {
      int next = -1;
      for (int u = 0; u < pattern.NumVertices(); ++u) {
        if (((component >> u) & 1u) == 0 || ((built >> u) & 1u)) continue;
        if ((pattern.NeighborMask(u) & built) != 0) {
          next = u;
          break;
        }
      }
      if (next < 0) break;
      order.push_back(next);
      built |= 1u << next;
    }
  }

  // Population of partial matches: sample[i][j] = data vertex bound to
  // order[j].
  const size_t max_arity = order.size();
  std::vector<VertexID> population(k * max_arity);

  // Step 1: the first edge. Sample a uniformly random directed edge by
  // drawing a slot in the neighbors array; the slot owner is found by
  // binary search over the offsets.
  const int root = order[0];
  const int second = order.size() > 1 ? order[1] : -1;
  LIGHT_CHECK(second >= 0);  // components with >= 2 vertices only
  LIGHT_CHECK(pattern.HasEdge(root, second));
  const std::span<const EdgeID> offsets = graph.OffsetsSpan();
  const std::span<const VertexID> neighbors = graph.NeighborsSpan();
  const uint64_t slots = neighbors.size();
  if (slots == 0) return 0.0;
  // A constraint between the first two vertices orients every sampled edge:
  // exactly M of the 2M ordered edges satisfy it.
  int first_low = -1;  // the one of root/second whose image is smaller
  for (const auto& [a, b] : constraints) {
    if ((a == root && b == second) || (a == second && b == root)) {
      first_low = a;
    }
  }
  for (size_t i = 0; i < k; ++i) {
    const uint64_t slot = rng_.NextBounded(slots);
    const auto it =
        std::upper_bound(offsets.begin(), offsets.end(), slot) - 1;
    VertexID u = static_cast<VertexID>(it - offsets.begin());
    VertexID v = neighbors[slot];
    if (first_low >= 0 && (u < v) != (first_low == root)) std::swap(u, v);
    population[i * max_arity + 0] = u;
    population[i * max_arity + 1] = v;
  }
  // 2M ordered first edges, M when oriented.
  double estimate = static_cast<double>(first_low >= 0 ? slots / 2 : slots);
  std::array<size_t, kMaxPatternVertices> position{};
  for (size_t j = 0; j < order.size(); ++j) {
    position[static_cast<size_t>(order[j])] = j;
  }

  // Subsequent steps: per sample, the candidate set is the intersection of
  // the neighbor lists of the mapped backward neighbors, cut to the ID
  // window of w's constraints on bound vertices (minus used vertices). The
  // mean candidate count is the step's expand factor; a uniformly random
  // candidate extends the sample; dead samples are replaced by live ones
  // (resampling keeps the population size at k).
  std::vector<VertexID> buffer(graph.MaxDegree());
  std::vector<VertexID> scratch(graph.MaxDegree());
  for (size_t step = 2; step < order.size(); ++step) {
    const int w = order[step];
    const uint32_t anchor_mask =
        pattern.NeighborMask(w) &
        [&] {
          uint32_t m = 0;
          for (size_t j = 0; j < step; ++j) m |= 1u << order[j];
          return m;
        }();
    // Positions of the bound endpoints of w's constraints: the image of w
    // lies above every image in `lower` and below every image in `upper`.
    std::array<size_t, kMaxPatternVertices> lower;
    std::array<size_t, kMaxPatternVertices> upper;
    size_t num_lower = 0;
    size_t num_upper = 0;
    for (const auto& [a, b] : constraints) {
      if (b == w && position[static_cast<size_t>(a)] < step) {
        lower[num_lower++] = position[static_cast<size_t>(a)];
      } else if (a == w && position[static_cast<size_t>(b)] < step) {
        upper[num_upper++] = position[static_cast<size_t>(b)];
      }
    }
    double total_candidates = 0.0;
    std::vector<size_t> live;
    std::vector<char> alive(k, 0);
    for (size_t i = 0; i < k; ++i) {
      VertexID* sample = &population[i * max_arity];
      std::array<std::span<const VertexID>, kMaxPatternVertices> sets;
      size_t num_sets = 0;
      for (size_t j = 0; j < step; ++j) {
        if ((anchor_mask >> order[j]) & 1u) {
          sets[num_sets++] = graph.Neighbors(sample[j]);
        }
      }
      const size_t count =
          IntersectMultiway({sets.data(), num_sets}, buffer.data(),
                            scratch.data(), IntersectKernel::kHybrid, nullptr);
      // The window (above the largest lower image, below the smallest upper
      // image) by two binary searches; both bounds are exclusive.
      const VertexID* first = buffer.data();
      const VertexID* last = buffer.data() + count;
      if (num_lower > 0) {
        VertexID lo = sample[lower[0]];
        for (size_t j = 1; j < num_lower; ++j) {
          lo = std::max(lo, sample[lower[j]]);
        }
        first = std::upper_bound(first, last, lo);
      }
      if (num_upper > 0) {
        VertexID hi = sample[upper[0]];
        for (size_t j = 1; j < num_upper; ++j) {
          hi = std::min(hi, sample[upper[j]]);
        }
        last = std::lower_bound(first, last, hi);
      }
      const size_t window = static_cast<size_t>(last - first);
      // Exclude candidates already used by this sample (injectivity).
      size_t valid = window;
      for (size_t j = 0; j < step; ++j) {
        if (std::binary_search(first, last, sample[j])) --valid;
      }
      total_candidates += static_cast<double>(valid);
      if (valid == 0) continue;
      // Draw a uniform valid candidate.
      for (int attempts = 0; attempts < 64; ++attempts) {
        const VertexID cand = first[rng_.NextBounded(window)];
        bool used = false;
        for (size_t j = 0; j < step; ++j) {
          if (sample[j] == cand) used = true;
        }
        if (!used) {
          sample[step] = cand;
          live.push_back(i);
          alive[i] = 1;
          break;
        }
      }
      if (!alive[i]) {
        // Extremely unlikely rejection-overflow; treat as dead.
        total_candidates -= static_cast<double>(valid);
      }
    }
    estimate *= total_candidates / static_cast<double>(k);
    if (live.empty() || estimate <= 0.0) return 0.0;
    // Resample dead slots from the live population.
    for (size_t i = 0; i < k; ++i) {
      if (alive[i]) continue;
      const size_t src = live[rng_.NextBounded(live.size())];
      std::copy_n(&population[src * max_arity], step + 1,
                  &population[i * max_arity]);
    }
  }
  return estimate;
}

}  // namespace light
