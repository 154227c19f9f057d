#ifndef LIGHT_PATTERN_AUTOMORPHISM_H_
#define LIGHT_PATTERN_AUTOMORPHISM_H_

#include <vector>

#include "pattern/pattern.h"

namespace light {

/// A permutation of pattern vertices; perm[u] is the image of u.
using Permutation = std::vector<int>;

/// Enumerates all automorphisms of P (edge-preserving self-bijections) by
/// backtracking with degree pruning. Pattern graphs are tiny (n <= 6 in the
/// paper), so brute force is instantaneous. The identity is always included.
std::vector<Permutation> FindAutomorphisms(const Pattern& pattern);

}  // namespace light

#endif  // LIGHT_PATTERN_AUTOMORPHISM_H_
