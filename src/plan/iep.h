#ifndef LIGHT_PLAN_IEP_H_
#define LIGHT_PLAN_IEP_H_

/// GraphPi's partition sum (arXiv:2009.10955, Section 5), the table of the
/// count-only leaf's partition form (ExecutionPlan::leaf).
///
/// Let t_1..t_k be pairwise non-adjacent pattern vertices whose candidate
/// sets C(t) are fixed once the rest of the pattern is bound (each C(t) is
/// cut to its window and stripped of the bound data vertices). With no
/// restriction ordering two of them, the number of injective bindings of
/// t_1..t_k is, by Möbius inversion over the partition lattice,
///
///   sum over partitions theta of {t_1..t_k} of
///     mu(theta) * prod_{B in theta} |C_B|,
///   mu(theta) = prod_B (-1)^(|B|-1) (|B|-1)!,  C_B = intersection of C_t.
///
/// A path's two ends thus cost |C(t1)| |C(t2)| - |C(t1) cap C(t2)| per
/// binding of its middle instead of a walk over C(t1).

#include <cstdint>
#include <vector>

namespace light {

/// One term of the partition sum: coefficient * prod |C_B| over `blocks`.
struct LeafTerm {
  int64_t coefficient = 0;
  /// Each block a bit mask over tail positions (bit i = t_{i+1}), ascending.
  std::vector<uint32_t> blocks;

  friend bool operator==(const LeafTerm& a, const LeafTerm& b) {
    return a.coefficient == b.coefficient && a.blocks == b.blocks;
  }
};

/// The partition sum over tail positions 0..k-1 (k = same_set.size(),
/// 1 <= k <= 5). same_set[i] is the smallest position whose candidate set
/// equals position i's (i itself when none does), so every block is named
/// by those positions only; terms whose block multisets then coincide merge,
/// coefficients summed, and terms that cancel are dropped. Deterministic
/// order.
std::vector<LeafTerm> PartitionSum(const std::vector<int>& same_set);

}  // namespace light

#endif  // LIGHT_PLAN_IEP_H_
