#include "pattern/symmetry_breaking.h"

#include <algorithm>

#include "pattern/automorphism.h"

namespace light {

PartialOrder ComputeSymmetryBreaking(const Pattern& pattern, uint32_t late) {
  std::vector<Permutation> group = FindAutomorphisms(pattern);
  PartialOrder constraints;
  const int n = pattern.NumVertices();
  while (group.size() > 1) {
    // Smallest vertex moved by some automorphism in the remaining group,
    // the `late` ones last.
    int pivot = -1;
    for (int pass = 0; pass < 2 && pivot < 0; ++pass) {
      for (int u = 0; u < n && pivot < 0; ++u) {
        if ((late >> u & 1u) != static_cast<uint32_t>(pass)) continue;
        for (const Permutation& perm : group) {
          if (perm[u] != u) {
            pivot = u;
            break;
          }
        }
      }
    }
    // group.size() > 1 guarantees a moved vertex exists.
    std::vector<int> orbit;
    for (const Permutation& perm : group) {
      if (std::find(orbit.begin(), orbit.end(), perm[pivot]) == orbit.end()) {
        orbit.push_back(perm[pivot]);
      }
    }
    std::sort(orbit.begin(), orbit.end());
    for (int v : orbit) {
      if (v != pivot) constraints.emplace_back(pivot, v);
    }
    // Stabilizer of the pivot.
    std::vector<Permutation> stabilizer;
    for (Permutation& perm : group) {
      if (perm[pivot] == pivot) stabilizer.push_back(std::move(perm));
    }
    group = std::move(stabilizer);
  }
  return constraints;
}

size_t AutomorphismCount(const Pattern& pattern) {
  return FindAutomorphisms(pattern).size();
}

}  // namespace light
