#include "plan/order_optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "plan/execution_order.h"
#include "plan/set_cover.h"

namespace light {
namespace {

void ExtendOrders(const Pattern& pattern, const PartialOrder& partial_order,
                  std::vector<int>& prefix, uint32_t used,
                  std::vector<std::vector<int>>* out) {
  const int n = pattern.NumVertices();
  if (static_cast<int>(prefix.size()) == n) {
    out->push_back(prefix);
    return;
  }
  for (int u = 0; u < n; ++u) {
    if ((used >> u) & 1u) continue;
    // Connectivity: every vertex after the first needs a backward neighbor.
    if (!prefix.empty() && (pattern.NeighborMask(u) & used) == 0) continue;
    // Partial-order pruning (Section VI): if x < u is constrained, x must
    // already be placed.
    bool ok = true;
    for (const auto& [a, b] : partial_order) {
      if (b == u && ((used >> a) & 1u) == 0) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    prefix.push_back(u);
    ExtendOrders(pattern, partial_order, prefix, used | (1u << u), out);
    prefix.pop_back();
  }
}

// Tie-break score: sum of positions of vertices that appear in any
// constraint; lower places constrained vertices earlier.
int ConstrainedPositionScore(const std::vector<int>& pi,
                             const PartialOrder& partial_order) {
  uint32_t constrained = 0;
  for (const auto& [a, b] : partial_order) {
    constrained |= 1u << a;
    constrained |= 1u << b;
  }
  int score = 0;
  for (int i = 0; i < static_cast<int>(pi.size()); ++i) {
    if ((constrained >> pi[static_cast<size_t>(i)]) & 1u) score += i;
  }
  return score;
}

}  // namespace

OrderCost EvaluateOrderCost(const Pattern& pattern, const std::vector<int>& pi,
                            const CardinalityEstimator& estimator,
                            const PartialOrder& restrictions,
                            bool lazy_materialization,
                            bool minimum_set_cover) {
  const ExecutionOrder sigma =
      lazy_materialization ? GenerateLazyExecutionOrder(pattern, pi)
                           : GenerateEagerExecutionOrder(pattern, pi);
  const auto operands = GenerateOperands(pattern, pi, minimum_set_cover);
  const auto anchors = AnchorVertices(pattern, pi, sigma);

  OrderCost cost;
  // alpha: Section VI estimates the per-intersection cost as the maximum
  // expand factor, weighting computation above materialization.
  const double alpha = std::max(1.0, estimator.ExtensionFactor());
  for (size_t i = 1; i < pi.size(); ++i) {
    const int u = pi[i];
    const double w_u = operands[static_cast<size_t>(u)].NumIntersections();
    if (w_u <= 0.0) continue;
    cost.computation +=
        alpha * w_u *
        estimator.EstimateMatches(pattern, anchors[static_cast<size_t>(u)],
                                  restrictions);
  }
  // Materialization follows pi', the MAT sequence of sigma (Section VI).
  // A count-only leaf of k >= 2 vertices is not walked: per binding of the
  // rest it reads one candidate set per block of its partition sum, one in
  // all for twins (ExecutionPlan::leaf).
  const std::vector<int> tail = IndependentMatSuffix(pattern, pi, sigma);
  uint32_t tail_mask = 0;
  std::vector<std::pair<uint32_t, uint32_t>> sets;
  for (int t : tail) {
    tail_mask |= 1u << t;
    const std::pair<uint32_t, uint32_t> set{pattern.NeighborMask(t),
                                            pattern.Label(t)};
    if (std::find(sets.begin(), sets.end(), set) == sets.end()) {
      sets.push_back(set);
    }
  }
  if (tail.size() < 2) tail_mask = 0;
  const std::vector<int> mat_order = MaterializationOrder(sigma);
  uint32_t mask = 0;
  double rest = 0.0;  // the partial results bound before the tail
  double walk = 0.0;
  for (int u : mat_order) {
    mask |= 1u << u;
    const double matches =
        estimator.EstimateMatches(pattern, mask, restrictions);
    if (tail_mask >> u & 1u) {
      walk += matches;
    } else {
      cost.materialization += matches;
      rest = matches;
    }
  }
  // The leaf runs only where every tail candidate set is non-empty, so it
  // never costs more than the walk it replaces.
  const double blocks = static_cast<double>((1u << sets.size()) - 1);
  cost.materialization += std::min(walk, blocks * rest);
  return cost;
}

std::vector<std::vector<int>> EnumerateConnectedOrders(
    const Pattern& pattern, const PartialOrder& partial_order) {
  std::vector<std::vector<int>> orders;
  std::vector<int> prefix;
  ExtendOrders(pattern, partial_order, prefix, 0, &orders);
  return orders;
}

std::vector<int> OptimizeEnumerationOrder(const Pattern& pattern,
                                          const CardinalityEstimator& estimator,
                                          const PartialOrder& partial_order,
                                          bool lazy_materialization,
                                          bool minimum_set_cover) {
  const auto orders = EnumerateConnectedOrders(pattern, partial_order);
  LIGHT_CHECK(!orders.empty());  // connected patterns always admit one
  const std::vector<int>* best = nullptr;
  double best_cost = 0.0;
  int best_score = 0;
  for (const auto& pi : orders) {
    const double cost =
        EvaluateOrderCost(pattern, pi, estimator, partial_order,
                          lazy_materialization, minimum_set_cover)
            .Total();
    const int score = ConstrainedPositionScore(pi, partial_order);
    const bool better =
        best == nullptr || cost < best_cost * (1.0 - 1e-12) ||
        (cost <= best_cost * (1.0 + 1e-12) &&
         (score < best_score || (score == best_score && pi < *best)));
    if (better) {
      best = &pi;
      best_cost = cost;
      best_score = score;
    }
  }
  return *best;
}

}  // namespace light
