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
#include "plan/set_cover.h"

namespace light {

/// Default degree-fraction threshold for the automatic bitmap-index policy:
/// index rows for vertices whose degree is at least density * |V|.
inline constexpr double kDefaultBitmapDensity = 0.1;

/// bitmap_min_degree sentinel: derive the threshold from bitmap_density.
/// (kBitmapDegreeNever, from graph/bitmap_index.h, disables the index.)
inline constexpr uint32_t kBitmapDegreeAuto = kBitmapDegreeNever - 1;

/// How symmetry-breaking restriction sets are derived (GraphPi, Section 4):
///   kGrochowKellis  the classic fixed pivot order (smallest moved vertex),
///                   independent of the matching order — the LIGHT paper's
///                   scheme and the default;
///   kCoOptimized    restriction sets generated per candidate matching
///                   order (pivot priority follows the order) and scored
///                   jointly with it, so the (order, restrictions) pair with
///                   the lowest Equation-8 cost under its restrictions wins;
///   kAuto           build both and keep the cheaper plan on that cost.
enum class RestrictionMode : uint8_t {
  kGrochowKellis,
  kCoOptimized,
  kAuto,
};

/// How counting-only queries are evaluated:
///   kEnumerate  walk every embedding (the default; required for visitors
///               and induced matching);
///   kIep        inclusion–exclusion over a counted tail of the pattern
///               (plan/iep.h): enumerate only a kernel sub-pattern and
///               combine tail candidate-set sizes by the partition-lattice
///               Möbius weights — exact, and often orders of magnitude
///               fewer embeddings touched;
///   kAuto       kIep when the pattern has a profitable tail (>= 2
///               independent counted vertices), else kEnumerate.
enum class CountStrategy : uint8_t {
  kEnumerate,
  kIep,
  kAuto,
};

const char* RestrictionModeName(RestrictionMode mode);
const char* CountStrategyName(CountStrategy strategy);

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
  /// Restriction-set derivation scheme (only meaningful with
  /// symmetry_breaking on).
  RestrictionMode restriction_mode = RestrictionMode::kGrochowKellis;
  /// Counting evaluation strategy; ignored (treated as kEnumerate) for
  /// visitor queries and induced matching.
  CountStrategy count_strategy = CountStrategy::kEnumerate;
  /// Non-empty: pin the enumeration order instead of optimizing it. Must be
  /// a permutation of the pattern vertices.
  std::vector<int> order_override;

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

  /// Value-range validation (pattern-independent; order_override is checked
  /// against the pattern at plan-build time).
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
  /// Induced matching only (empty otherwise): non_adjacent[u] lists pattern
  /// vertices w with no (u, w) pattern edge whose MAT precedes MAT(u) in
  /// sigma; binding u to v requires e(v, phi(w)) to be absent from E(G).
  std::vector<std::vector<int>> non_adjacent;
  /// IEP term plans only (plan/iep.h): pattern vertices that are never
  /// materialized. They sit at the end of pi, their COMP ops close sigma,
  /// and per kernel embedding the engine multiplies their candidate-set
  /// sizes (minus already-bound vertices) into the count instead of
  /// recursing. Empty for ordinary plans.
  std::vector<int> counted_tail;

  int FirstVertex() const { return pi[0]; }
  bool HasCountedTail() const { return !counted_tail.empty(); }

  /// Multi-line human-readable plan description.
  std::string ToString() const;
};

/// Full Section-VI pipeline: symmetry breaking, order optimization with the
/// SEED-style sampling estimator over the data graph (`stats` as from
/// ComputeGraphStats(graph); the triangle count is not read), sigma
/// generation, operand generation.
ExecutionPlan BuildPlan(const Pattern& pattern, const Graph& graph,
                        const GraphStats& stats, const PlanOptions& options);

/// Builds a plan over a caller-chosen enumeration order (experiments with
/// pinned orders, EH-like disconnected orders, tests). The order must be a
/// permutation; connectivity is not required.
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
