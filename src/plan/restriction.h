#ifndef LIGHT_PLAN_RESTRICTION_H_
#define LIGHT_PLAN_RESTRICTION_H_

/// GraphPi-style restriction sets (arXiv:2009.10955, Section 4).
///
/// The classic Grochow–Kellis scheme (pattern/symmetry_breaking.h) breaks
/// symmetry with a FIXED pivot order — the smallest moved vertex — chosen
/// with no knowledge of the matching order, so the constraints often land on
/// vertices materialized late, where they prune little. GraphPi's insight is
/// that the pivot sequence is a free parameter: ANY sequence of moved
/// vertices yields a correct restriction set (each step constrains the pivot
/// below its orbit and recurses into the stabilizer, exactly the GK
/// argument), so the planner can generate one restriction set per candidate
/// matching order — pivoting on early-matched vertices first — and score the
/// (order, restrictions) pair jointly.
///
/// The joint score is the Equation-8 cost of the order estimated under its
/// own restriction set (plan/cardinality.h samples partial matches that
/// satisfy the constraints), the same cost the Grochow–Kellis path
/// minimizes, so kAuto compares the two plans on one model. A uniform-ID
/// selectivity (the fraction of vertex orderings the constraints admit)
/// would not do: on a degree-ordered graph the constraints cut prefixes
/// unevenly, e.g. the 4-cycle's wedge at its lowest vertex ~20x where the
/// uniform model says 6x.

#include <vector>

#include "pattern/automorphism.h"
#include "pattern/pattern.h"
#include "pattern/symmetry_breaking.h"
#include "plan/cardinality.h"

namespace light {

/// Grochow–Kellis restriction generation from an explicit group, picking
/// each round's pivot as the moved vertex with the smallest
/// pivot_priority[u] (ties toward the smaller vertex id). With
/// pivot_priority[u] = u this reproduces ComputeSymmetryBreaking exactly.
PartialOrder RestrictionsFromGroup(const AutomorphismGroup& group,
                                   int num_vertices,
                                   const std::vector<int>& pivot_priority);

/// Restriction set tailored to a matching order: pivots are preferred in pi
/// order, so constraints attach to the earliest-materialized vertices and
/// cut enumeration near the root.
PartialOrder ComputeRestrictionsForOrder(const Pattern& pattern,
                                         const std::vector<int>& pi);

struct RestrictedPlanChoice {
  std::vector<int> pi;
  PartialOrder restrictions;
  double cost = 0.0;
};

/// GraphPi joint optimization: every connected matching order paired with
/// its order-tailored restriction set, scored by EvaluateOrderCost under
/// that set; returns the minimum (deterministic tie-break toward the
/// lexicographically smaller order). With a trivial automorphism group this
/// degenerates to the plain Equation-8 order optimization.
RestrictedPlanChoice CoOptimizeOrderAndRestrictions(
    const Pattern& pattern, const CardinalityEstimator& estimator,
    bool lazy_materialization, bool minimum_set_cover);

}  // namespace light

#endif  // LIGHT_PLAN_RESTRICTION_H_
