#ifndef LIGHT_PATTERN_SYMMETRY_BREAKING_H_
#define LIGHT_PATTERN_SYMMETRY_BREAKING_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "pattern/pattern.h"

namespace light {

/// A constraint (u, v) requires phi(u) < phi(v) on data-vertex IDs. The data
/// graph is relabeled so IDs respect the degree order of Section II-A
/// (graph/reorder.h), which is what makes these comparisons meaningful.
using PartialOrder = std::vector<std::pair<int, int>>;

/// Computes symmetry-breaking constraints with the technique of Grochow and
/// Kellis [7], referenced in Section II-A: repeatedly pick the smallest
/// vertex moved by the remaining automorphism group, constrain it below its
/// orbit, and restrict the group to its stabilizer. With the returned
/// constraints enforced, every subgraph of G isomorphic to P is reported by
/// exactly one match, i.e.
///   count(no constraints) == count(with constraints) * |Aut(P)|.
///
/// Vertices in `late` (a bit mask) are pivoted only once no other vertex is
/// moved. The plan pivots a pairwise non-adjacent tail this way: the group
/// left then fixes every other vertex, so it only permutes tail vertices
/// with equal neighbourhoods, and the tail's own constraints are chains of
/// such twins (ExecutionPlan::leaf).
PartialOrder ComputeSymmetryBreaking(const Pattern& pattern,
                                     uint32_t late = 0);

/// Number of automorphisms of the pattern.
size_t AutomorphismCount(const Pattern& pattern);

}  // namespace light

#endif  // LIGHT_PATTERN_SYMMETRY_BREAKING_H_
