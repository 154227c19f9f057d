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

// Cache key over (pattern shape, mask). Patterns are tiny, so hashing the
// adjacency words is exact enough in practice for a performance cache; a
// collision would only perturb a cost estimate.
uint64_t CacheKey(const Pattern& pattern, uint32_t mask) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ mask;
  for (int u = 0; u < pattern.NumVertices(); ++u) {
    h ^= pattern.NeighborMask(u) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
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

double CardinalityEstimator::EstimateMatches(const Pattern& pattern,
                                             uint32_t mask) const {
  if (mask == 0) return 1.0;
  const uint64_t key = CacheKey(pattern, mask);
  if (const auto it = cache_.find(key); it != cache_.end()) {
    return it->second;
  }
  double estimate = 1.0;
  uint32_t remaining = mask;
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
    if (__builtin_popcount(component) == 1) {
      estimate *= n_;
    } else if (graph_ != nullptr) {
      estimate *= SampleComponent(pattern, component);
    } else {
      estimate *= AnalyticEstimate(pattern, component);
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

double CardinalityEstimator::SampleComponent(const Pattern& pattern,
                                             uint32_t component) const {
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
  for (size_t i = 0; i < k; ++i) {
    const uint64_t slot = rng_.NextBounded(slots);
    const auto it =
        std::upper_bound(offsets.begin(), offsets.end(), slot) - 1;
    const VertexID u = static_cast<VertexID>(it - offsets.begin());
    const VertexID v = neighbors[slot];
    population[i * max_arity + 0] = u;
    population[i * max_arity + 1] = v;
  }
  double estimate = static_cast<double>(slots);  // 2M ordered first edges

  // Subsequent steps: per sample, the candidate set is the intersection of
  // the neighbor lists of the mapped backward neighbors (minus used
  // vertices). The mean candidate count is the step's expand factor; a
  // uniformly random candidate extends the sample; dead samples are
  // replaced by live ones (resampling keeps the population size at k).
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
    double total_candidates = 0.0;
    std::vector<size_t> live;
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
      // Exclude candidates already used by this sample (injectivity).
      size_t valid = count;
      for (size_t j = 0; j < step; ++j) {
        if (std::binary_search(buffer.data(), buffer.data() + count,
                               sample[j])) {
          --valid;
        }
      }
      total_candidates += static_cast<double>(valid);
      if (valid == 0) continue;
      // Draw a uniform valid candidate.
      for (int attempts = 0; attempts < 64; ++attempts) {
        const VertexID cand = buffer[rng_.NextBounded(count)];
        bool used = false;
        for (size_t j = 0; j < step; ++j) {
          if (sample[j] == cand) used = true;
        }
        if (!used) {
          sample[step] = cand;
          live.push_back(i);
          break;
        }
      }
      if (live.empty() || live.back() != i) {
        // Extremely unlikely rejection-overflow; treat as dead.
        total_candidates -= static_cast<double>(valid);
      }
    }
    estimate *= total_candidates / static_cast<double>(k);
    if (live.empty() || estimate <= 0.0) return 0.0;
    // Resample dead slots from the live population.
    for (size_t i = 0; i < k; ++i) {
      if (std::find(live.begin(), live.end(), i) != live.end()) continue;
      const size_t src = live[rng_.NextBounded(live.size())];
      std::copy_n(&population[src * max_arity], step + 1,
                  &population[i * max_arity]);
    }
  }
  return estimate;
}

}  // namespace light
