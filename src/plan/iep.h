#ifndef LIGHT_PLAN_IEP_H_
#define LIGHT_PLAN_IEP_H_

/// Inclusion–exclusion counting (GraphPi, arXiv:2009.10955, Section 5).
///
/// Split the pattern into a connected KERNEL K and an independent TAIL S
/// (no pattern edges inside S; since P is connected, every tail vertex's
/// neighbors all lie in K). Enumerate only kernel embeddings phi — WITHOUT
/// symmetry breaking — and close the count analytically: writing C_t(phi)
/// for the candidate set of tail vertex t given phi (common neighbors of
/// phi over N_P(t), label-filtered, minus phi(K)), the number of injective
/// tail extensions is, by Möbius inversion over the partition lattice,
///
///   sum over partitions theta of S:  mu(theta) * prod_{B in theta} |C_B|,
///   mu(theta) = prod_B (-1)^(|B|-1) (|B|-1)!,   C_B = intersection of C_t.
///
/// Each partition becomes one TERM: a sub-pattern of kernel plus one merged
/// vertex per block (adjacent to the union of the block's kernel
/// neighborhoods), executed by the engine's counted-tail mode, which
/// multiplies candidate-set sizes instead of materializing them. Terms with
/// identical merged-vertex multisets collapse, coefficients summed. Summing
/// coefficient-weighted term counts over all kernel embeddings yields
/// emb(P), the number of labeled embeddings; the unique subgraph count is
/// emb(P) / |Aut(P)|.
///
/// The win: a 5-star costs enumerating one vertex and reading one degree
/// per embedding instead of walking d^4 leaves.

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_stats.h"
#include "pattern/pattern.h"
#include "plan/plan.h"

namespace light {

/// One inclusion–exclusion term: the kernel plus one merged vertex per
/// block of a tail partition (vertices k..k+m-1 where k is the kernel
/// size), with the signed, deduplicated Möbius coefficient.
struct IepTerm {
  Pattern pattern;
  /// The merged vertices, ascending (always k..k+m-1).
  std::vector<int> counted_tail;
  int64_t coefficient = 0;
};

struct IepDecomposition {
  /// Original-pattern vertex ids, ascending. Kernel vertex kernel[i] maps
  /// to term-pattern vertex i.
  std::vector<int> kernel;
  std::vector<int> tail;
  std::vector<IepTerm> terms;
  /// |Aut(P)| of the ORIGINAL pattern: emb(P) / automorphism_count is the
  /// unique subgraph count.
  uint64_t automorphism_count = 1;

  bool valid() const { return !tail.empty(); }
};

/// Chooses the largest independent tail (at most max_tail vertices, ties
/// toward the lexicographically smallest vertex set) whose complement
/// induces a connected non-empty kernel, then expands the partition lattice
/// into deduplicated terms. Label-conflicting blocks (two members with
/// different non-wildcard labels force an empty candidate intersection) are
/// dropped, as are terms whose coefficients cancel to zero. Returns an
/// invalid decomposition (empty tail) when no vertex can be shed.
IepDecomposition BuildIepDecomposition(const Pattern& pattern,
                                       int max_tail = 5);

/// Compiles one term into an executable counted-tail plan: the kernel
/// sub-plan is cost-optimized as usual but with symmetry breaking OFF (IEP
/// needs every kernel embedding), then the merged vertices are appended to
/// pi with trailing COMP ops and counted_tail set. The kernel order is
/// chosen with the sampling cardinality estimator over `graph`, as in
/// BuildPlan.
ExecutionPlan BuildIepTermPlan(const IepTerm& term, const Graph& graph,
                               const GraphStats& stats,
                               const PlanOptions& options);

}  // namespace light

#endif  // LIGHT_PLAN_IEP_H_
