#include "plan/restriction.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/check.h"
#include "plan/order_optimizer.h"

namespace light {
namespace {

/// Stabilizer of `vertex` inside `group`: the elements fixing it.
std::vector<Permutation> Stabilizer(const std::vector<Permutation>& group,
                                    int vertex) {
  std::vector<Permutation> out;
  for (const Permutation& g : group) {
    if (g[static_cast<size_t>(vertex)] == vertex) out.push_back(g);
  }
  return out;
}

bool GroupIsTrivial(const std::vector<Permutation>& group) {
  return group.size() <= 1;
}

}  // namespace

PartialOrder RestrictionsFromGroup(const AutomorphismGroup& group,
                                   int num_vertices,
                                   const std::vector<int>& pivot_priority) {
  LIGHT_CHECK(static_cast<int>(pivot_priority.size()) == num_vertices);
  PartialOrder constraints;
  std::vector<Permutation> current = group.elements;
  while (!GroupIsTrivial(current)) {
    // Pivot: the moved vertex with the smallest priority (ties -> smaller id).
    int pivot = -1;
    for (int u = 0; u < num_vertices; ++u) {
      bool moved = false;
      for (const Permutation& g : current) {
        if (g[static_cast<size_t>(u)] != u) {
          moved = true;
          break;
        }
      }
      if (!moved) continue;
      if (pivot == -1 || pivot_priority[static_cast<size_t>(u)] <
                             pivot_priority[static_cast<size_t>(pivot)]) {
        pivot = u;
      }
    }
    LIGHT_CHECK(pivot != -1);
    // Orbit of the pivot under the current subgroup: constrain the pivot's
    // data vertex below every other member's, then recurse into the
    // stabilizer — the Grochow–Kellis argument verbatim, which is sound for
    // ANY pivot choice among the moved vertices.
    std::vector<int> orbit;
    for (const Permutation& g : current) {
      const int v = g[static_cast<size_t>(pivot)];
      if (std::find(orbit.begin(), orbit.end(), v) == orbit.end()) {
        orbit.push_back(v);
      }
    }
    std::sort(orbit.begin(), orbit.end());
    for (int v : orbit) {
      if (v != pivot) constraints.emplace_back(pivot, v);
    }
    current = Stabilizer(current, pivot);
  }
  std::sort(constraints.begin(), constraints.end());
  return constraints;
}

PartialOrder ComputeRestrictionsForOrder(const Pattern& pattern,
                                         const std::vector<int>& pi) {
  const int n = pattern.NumVertices();
  LIGHT_CHECK(static_cast<int>(pi.size()) == n);
  std::vector<int> priority(static_cast<size_t>(n), 0);
  for (int pos = 0; pos < n; ++pos) {
    priority[static_cast<size_t>(pi[static_cast<size_t>(pos)])] = pos;
  }
  return RestrictionsFromGroup(FindAutomorphismGroup(pattern), n, priority);
}

RestrictedPlanChoice CoOptimizeOrderAndRestrictions(
    const Pattern& pattern, const CardinalityEstimator& estimator,
    bool lazy_materialization, bool minimum_set_cover) {
  const AutomorphismGroup group = FindAutomorphismGroup(pattern);
  const int n = pattern.NumVertices();
  // No precedence pruning here: restriction sets differ per order, so every
  // connected order stays a candidate.
  const std::vector<std::vector<int>> orders =
      EnumerateConnectedOrders(pattern, PartialOrder{});
  LIGHT_CHECK(!orders.empty());
  RestrictedPlanChoice best;
  best.cost = std::numeric_limits<double>::infinity();
  std::vector<int> priority(static_cast<size_t>(n), 0);
  for (const std::vector<int>& pi : orders) {
    for (int pos = 0; pos < n; ++pos) {
      priority[static_cast<size_t>(pi[static_cast<size_t>(pos)])] = pos;
    }
    PartialOrder restrictions = RestrictionsFromGroup(group, n, priority);
    const double cost =
        EvaluateOrderCost(pattern, pi, estimator, restrictions,
                          lazy_materialization, minimum_set_cover)
            .Total();
    // Deterministic: strict improvement beyond tolerance wins; the first
    // candidate at a tied cost is kept (orders enumerate lexicographically).
    if (cost < best.cost * (1.0 - 1e-12) || best.pi.empty()) {
      best.pi = pi;
      best.restrictions = std::move(restrictions);
      best.cost = cost;
    }
  }
  return best;
}

}  // namespace light
