#ifndef LIGHT_PLAN_PLAN_H_
#define LIGHT_PLAN_PLAN_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/bitmap_index.h"
#include "graph/graph_stats.h"
#include "intersect/set_intersection.h"
#include "pattern/pattern.h"
#include "pattern/symmetry_breaking.h"
#include "plan/execution_order.h"
#include "plan/iep.h"
#include "plan/set_cover.h"

namespace light {

/// Default degree-fraction threshold for the automatic bitmap-index policy:
/// index rows for vertices whose degree is at least density * |V|.
inline constexpr double kDefaultBitmapDensity = 0.1;

/// bitmap_min_degree sentinel: derive the threshold from bitmap_density.
/// (kBitmapDegreeNever, from graph/bitmap_index.h, disables the index.)
inline constexpr uint32_t kBitmapDegreeAuto = kBitmapDegreeNever - 1;

/// Knobs selecting the algorithm variant of Section VIII-B1:
///   SE    = {lazy=false, set_cover=false}
///   LM    = {lazy=true,  set_cover=false}
///   MSC   = {lazy=false, set_cover=true}
///   LIGHT = {lazy=true,  set_cover=true}
///
/// This is the one plan-shaping surface shared by the planner, the facade
/// (RunOptions::plan_options) and sessions (SessionOptions::plan_options);
/// the facade's plan cache keys on CacheKey(), so every field that changes
/// the compiled plan must be encoded there.
struct PlanOptions {
  bool lazy_materialization = true;
  bool minimum_set_cover = true;
  /// Pairwise intersection method (Figure 6 compares these).
  IntersectKernel kernel = IntersectKernel::kHybrid;
  /// Resolve `kernel` to the best available one (HybridAVX2 > Hybrid) at
  /// normalization time. While set, Validate() skips the
  /// kernel-availability check and the engine ignores `kernel` routing
  /// beyond its own fallback; facades call Normalized() before building.
  bool auto_kernel = true;
  /// Enforce the symmetry-breaking partial order so each subgraph is
  /// reported once. Disable to count all matches (= subgraphs x |Aut(P)|).
  bool symmetry_breaking = true;
  /// Induced (vertex-induced) matching: pattern NON-edges must map to data
  /// non-edges, the semantics of network-motif counting [26]. The paper's
  /// problem statement is the non-induced one (Definition II.1), which
  /// remains the default. Automorphisms are identical under both semantics,
  /// so symmetry breaking composes unchanged.
  bool induced = false;
  /// Bitmap-index routing (execution-level: NOT part of CacheKey, the
  /// compiled plan is bitmap-agnostic). min_degree: absolute degree
  /// threshold, kBitmapDegreeAuto = derive from density, kBitmapDegreeNever
  /// = disable. max_bytes caps the index footprint.
  uint32_t bitmap_min_degree = kBitmapDegreeAuto;
  double bitmap_density = kDefaultBitmapDensity;
  size_t bitmap_max_bytes = size_t{512} * 1024 * 1024;

  static PlanOptions Se() { return {false, false}; }
  static PlanOptions Lm() { return {true, false}; }
  static PlanOptions Msc() { return {false, true}; }
  static PlanOptions Light() { return {}; }

  PlanOptions() = default;
  PlanOptions(bool lazy, bool cover)
      : lazy_materialization(lazy), minimum_set_cover(cover) {}

  /// Value-range validation (pattern-independent).
  Status Validate() const;

  /// Resolves auto_kernel / unavailable kernels and clamps NaN/negative
  /// bitmap density to the default.
  PlanOptions Normalized() const;

  /// Canonical byte encoding of every plan-shaping field (bitmap knobs
  /// excluded): two options produce the same compiled plan for a pattern
  /// iff their keys match. Appended to the canonical pattern key by the
  /// facade's plan cache.
  std::string CacheKey() const;
};

/// Symmetry-breaking bounds applied when a candidate set is computed, before
/// its intersections run (see ExecutionPlan::comp_windows).
struct CompWindow {
  std::vector<int> lower;  // x with phi(x) < phi(u) implied
  std::vector<int> upper;  // y with phi(u) < phi(y) implied

  bool empty() const { return lower.empty() && upper.empty(); }
};

/// The count-only terminal (ExecutionPlan::leaf): what a run without a
/// visitor adds per binding of the vertices before it instead of walking
/// them. The tail t1..tk (1 <= k <= kMaxLeafTail) is a run of MATs that
/// ends sigma (before COMP(b) MAT(b) when there is a b): pairwise
/// non-adjacent vertices with operands and no non-edge checks, so every
/// other vertex is bound when the leaf runs and each C(t) is final. With
/// S(t) = C(t) cut to t's window (its bounds on non-tail vertices) minus the
/// bound data vertices:
///  - Twin form (terms empty): the tail is one chain of twins, equal in
///    pattern neighbourhood, label and outer bounds, and totally ordered by
///    the restrictions among them. They bind, in that order, to every
///    i-subset of S = S(t1), so MAT(t_i) extends by C(|S|, i). k = 1 is the
///    counted last vertex; one-neighbour twins are a star's leaves.
///  - Partition form (terms set, k >= 2): no restriction orders two tail
///    vertices, and MAT(t_i) extends by terms[i-1], GraphPi's partition sum
///    (plan/iep.h) over t1..t_i with |C_B| read as |cap of S(t), t in B|.
///  - Closing vertex b (twin form, k >= 2, twins sharing >= 2 neighbours):
///    b's only neighbours and K1 operands are the twins and none of b's
///    bounds names a twin. sigma ends MAT(t1) ... MAT(tk) COMP(b) MAT(b),
///    and with cnt[w] = |N(w) cap S| the count is the sum over unbound w in
///    b's window of C(cnt[w], k) (Chiba–Nishizeki's quadrangle count for
///    k = 2).
struct CountLeaf {
  std::vector<int> tail;
  std::vector<std::vector<LeafTerm>> terms;
  int b = -1;

  bool empty() const { return tail.empty(); }
  bool twins() const { return !tail.empty() && terms.empty(); }
};

/// The compiled, immutable artifact the enumeration engine executes: the
/// enumeration order pi, the execution order sigma, per-vertex operands
/// (K1/K2), and symmetry-breaking constraints wired to the MAT operation at
/// which they become checkable.
struct ExecutionPlan {
  Pattern pattern;
  PlanOptions options;
  std::vector<int> pi;
  ExecutionOrder sigma;
  /// Indexed by pattern vertex; empty operands with a COMP op mean the
  /// vertex has no backward neighbors (disconnected order, EH-like) and its
  /// candidate set is the whole vertex set.
  std::vector<Operands> operands;
  PartialOrder partial_order;
  /// Indexed by pattern vertex u: constraints checkable when u is
  /// materialized. lower_bounds[u] holds x with phi(x) < phi(u) required;
  /// upper_bounds[u] holds y with phi(u) < phi(y) required; in both cases
  /// MAT(x)/MAT(y) precedes MAT(u) in sigma.
  std::vector<std::vector<int>> lower_bounds;
  std::vector<std::vector<int>> upper_bounds;
  /// COMP-time windows, indexed by pattern vertex u (empty without
  /// symmetry breaking). Every x in comp_windows[u] is materialized before
  /// COMP(u) in sigma, and the relation phi(x) < phi(u) (lower) or
  /// phi(u) < phi(x) (upper) follows, by transitivity, from the
  /// constraints among the vertices bound by MAT(w), for w = u and for
  /// every w that reads C(u) through a chain of K2 operands. So cutting C(u) to the window before intersecting drops
  /// only candidates that MAT(w) would reject anyway: every MAT extension
  /// count is unchanged.
  std::vector<CompWindow> comp_windows;
  /// Induced matching only (empty otherwise): non_adjacent[u] lists pattern
  /// vertices w with no (u, w) pattern edge whose MAT precedes MAT(u) in
  /// sigma; binding u to v requires e(v, phi(w)) to be absent from E(G).
  std::vector<std::vector<int>> non_adjacent;
  /// The count-only leaf; empty when the last MAT's vertex has non-edge
  /// checks (induced plans) or no operands.
  CountLeaf leaf;

  int FirstVertex() const { return pi[0]; }
  bool HasCompWindows() const;

  /// Multi-line human-readable plan description.
  std::string ToString() const;
};

/// Full Section-VI pipeline: symmetry breaking, order optimization with the
/// SEED-style sampling estimator over the data graph (`stats` as from
/// ComputeGraphStats(graph); the triangle count is not read), sigma
/// generation, operand generation. When the Grochow–Kellis constraints
/// order two tail vertices of IndependentMatSuffix that are not twins, they
/// are recomputed with that tail pivoted last, so the whole tail becomes the
/// count-only leaf (a path's ends: u1<u2 instead of u0<u3).
ExecutionPlan BuildPlan(const Pattern& pattern, const Graph& graph,
                        const GraphStats& stats, const PlanOptions& options);

/// Builds a plan over a caller-chosen enumeration order (experiments with
/// pinned orders, EH-like disconnected orders, tests). The order must be a
/// permutation; connectivity is not required. Symmetry breaking as in
/// BuildPlan.
ExecutionPlan BuildPlanWithOrder(const Pattern& pattern,
                                 const std::vector<int>& pi,
                                 const PlanOptions& options);

/// Like BuildPlanWithOrder but enforcing a caller-supplied partial order
/// instead of the pattern's own symmetry-breaking constraints. The BSP join
/// engine uses this to push the subset of global constraints local to a join
/// unit into the unit's enumeration.
ExecutionPlan BuildPlanWithConstraints(const Pattern& pattern,
                                       const std::vector<int>& pi,
                                       const PlanOptions& options,
                                       PartialOrder constraints);

}  // namespace light

#endif  // LIGHT_PLAN_PLAN_H_
