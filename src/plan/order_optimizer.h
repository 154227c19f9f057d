#ifndef LIGHT_PLAN_ORDER_OPTIMIZER_H_
#define LIGHT_PLAN_ORDER_OPTIMIZER_H_

#include <vector>

#include "pattern/pattern.h"
#include "pattern/symmetry_breaking.h"
#include "plan/cardinality.h"

namespace light {

/// Cost of an enumeration order under Equation 8:
///   T = alpha * sum_u w_u * |R(P[A^pi(u)])|   (computation)
///     +         sum_i |R(P_i^pi')|            (materialization)
/// where pi' is the materialization order induced by sigma, w_u comes from
/// Equation 7 (or 4 without set cover), and |R(.)| is estimated by the
/// CardinalityEstimator under the plan's restriction set: the partial
/// results the engine enumerates satisfy every constraint whose endpoints
/// are both bound. A count-only leaf of k >= 2 vertices
/// (IndependentMatSuffix) is scored as one candidate set per block of its
/// partition sum per binding of the rest, capped at the walk it replaces.
struct OrderCost {
  double computation = 0.0;
  double materialization = 0.0;
  double Total() const { return computation + materialization; }
};

/// Evaluates Equation 8 for a given connected enumeration order executed
/// under `restrictions` (empty without symmetry breaking).
OrderCost EvaluateOrderCost(const Pattern& pattern, const std::vector<int>& pi,
                            const CardinalityEstimator& estimator,
                            const PartialOrder& restrictions,
                            bool lazy_materialization, bool minimum_set_cover);

/// Section VI: enumerate all connected enumeration orders of V(P), pruned by
/// the symmetry-breaking partial order (if u < u' is constrained, u must
/// precede u' in pi), and return the one minimizing Equation 8 under that
/// partial order. Ties are
/// broken toward orders placing constrained vertices earlier, then
/// lexicographically for determinism.
std::vector<int> OptimizeEnumerationOrder(const Pattern& pattern,
                                          const CardinalityEstimator& estimator,
                                          const PartialOrder& partial_order,
                                          bool lazy_materialization,
                                          bool minimum_set_cover);

/// All connected enumeration orders consistent with the partial order.
/// Exposed for tests and ablation benchmarks.
std::vector<std::vector<int>> EnumerateConnectedOrders(
    const Pattern& pattern, const PartialOrder& partial_order);

}  // namespace light

#endif  // LIGHT_PLAN_ORDER_OPTIMIZER_H_
