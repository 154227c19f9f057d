#ifndef LIGHT_PLAN_EXECUTION_ORDER_H_
#define LIGHT_PLAN_EXECUTION_ORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "pattern/pattern.h"

namespace light {

/// One step of the execution order sigma (Section IV): either compute the
/// candidate set of a pattern vertex (COMP) or materialize it (MAT).
enum class OpType : uint8_t {
  kCompute,
  kMaterialize,
};

struct Operation {
  OpType type;
  int vertex;

  friend bool operator==(const Operation& a, const Operation& b) {
    return a.type == b.type && a.vertex == b.vertex;
  }
};

/// sigma: the sequence of operations the engine executes. By convention the
/// first operation is always MAT(pi[1]) whose candidate set is V(G)
/// (Algorithm 2 realizes it with the loop at lines 5-8).
using ExecutionOrder = std::vector<Operation>;

/// Backward neighbors N^pi_+(u) for every pattern vertex, in pi order
/// (Definition II.3).
std::vector<std::vector<int>> BackwardNeighbors(const Pattern& pattern,
                                                const std::vector<int>& pi);

/// Algorithm 2's GenerateExecutionOrder: lazy materialization. A vertex is
/// materialized only once the COMP of a later vertex needs it as an anchor;
/// vertices never needed as anchors are materialized at the end.
ExecutionOrder GenerateLazyExecutionOrder(const Pattern& pattern,
                                          const std::vector<int>& pi);

/// The eager order used by SE (Algorithm 1) and the MSC-only variant:
/// MAT(pi[1]), then COMP(pi[i]) immediately followed by MAT(pi[i]).
ExecutionOrder GenerateEagerExecutionOrder(const Pattern& pattern,
                                           const std::vector<int>& pi);

/// Checks sigma's structural invariants with respect to (pattern, pi):
///  - exactly one MAT per vertex; exactly one COMP per vertex except pi[1];
///  - sigma[0] == MAT(pi[1]);
///  - COMP ops appear in pi order;
///  - every backward neighbor of u is materialized before COMP(u);
///  - COMP(u) precedes MAT(u).
bool ValidateExecutionOrder(const Pattern& pattern, const std::vector<int>& pi,
                            const ExecutionOrder& sigma);

/// Largest tail the count-only leaf takes (ExecutionPlan::leaf): its
/// partition sum has Bell(k) terms, 52 for k = 5.
inline constexpr int kMaxLeafTail = 5;

/// The longest run of MATs ending sigma, at most kMaxLeafTail of them, whose
/// vertices are pairwise non-adjacent and each have a backward neighbour in
/// pi, in sigma order: what the count-only leaf may count instead of walk.
std::vector<int> IndependentMatSuffix(const Pattern& pattern,
                                      const std::vector<int>& pi,
                                      const ExecutionOrder& sigma);

/// Anchor vertices A^pi(u) (Definition IV.1): vertices before u in pi whose
/// MAT precedes COMP(u) in sigma. For pi[1] this is empty. Returned as a
/// bitmask per vertex.
std::vector<uint32_t> AnchorVertices(const Pattern& pattern,
                                     const std::vector<int>& pi,
                                     const ExecutionOrder& sigma);

/// Free vertices F^pi(u) (Definition IV.1): before u in pi, MAT after
/// COMP(u).
std::vector<uint32_t> FreeVertices(const Pattern& pattern,
                                   const std::vector<int>& pi,
                                   const ExecutionOrder& sigma);

/// The materialization order pi' (Section VI): pattern vertices in the order
/// of their MAT operations.
std::vector<int> MaterializationOrder(const ExecutionOrder& sigma);

/// "MAT(u0) COMP(u2) MAT(u2) ..." for diagnostics.
std::string ExecutionOrderToString(const ExecutionOrder& sigma);

/// True if pi is a connected enumeration order of the pattern: every vertex
/// after the first has at least one backward neighbor (Section II-A).
bool IsConnectedOrder(const Pattern& pattern, const std::vector<int>& pi);

}  // namespace light

#endif  // LIGHT_PLAN_EXECUTION_ORDER_H_
