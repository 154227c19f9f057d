#ifndef LIGHT_ANALYSIS_PLAN_LINTER_H_
#define LIGHT_ANALYSIS_PLAN_LINTER_H_

/// Static verification of execution plans.
///
/// LIGHT's correctness hinges on static properties of the plan, not the
/// runtime: the matching order must be connected, the symmetry-breaking
/// partial order must be acyclic and consistent with the automorphism group
/// (Section II-A), and the minimum-set-cover candidate computation must
/// cover every backward neighbor (Section V). The differential fuzzer only
/// catches violations indirectly — a count divergence hours after the code
/// that produced the plan merged. PlanLinter proves the invariants directly
/// from the (Pattern, ExecutionPlan) pair, before execution:
///
///   plan-shape            container sizes consistent with the pattern
///   plan-pattern-mismatch plan built for a different pattern
///   order-permutation     pi is a permutation of the pattern vertices
///   order-connectivity    pi is connected (error under lazy
///                         materialization, warning for eager EH-like plans)
///   sigma-structure       sigma obeys the Section-IV structural invariants
///   operands-first-vertex pi[0] carries no operands
///   sb-constraint-range   constraint endpoints are distinct, in-range
///   sb-antisymmetry       no constraint pair (a,b) and (b,a)
///   sb-cycle              the partial order is acyclic
///   sb-wiring             every constraint wired to exactly one bound list,
///                         at the later-materialized endpoint
///   sb-comp-window        a COMP-time window bound (comp_windows) is not
///                         materialized before the COMP, or the order it
///                         imposes is not enforced (transitively, among the
///                         vertices bound by MAT(w)) for the vertex or for a
///                         vertex w reading its candidate set through K2, or
///                         the plan has a counted tail
///   twin-closure          the twin closure (twin_closure) is not exact:
///                         twins adjacent or with different neighbourhoods,
///                         candidate sets or outer bounds, an outer bound
///                         not bound before MAT(t1), a chain constraint
///                         missing, a non-twin operand of b, a twin named
///                         in b's window, sigma not ending with the twins'
///                         MATs (then COMP(b), MAT(b) if there is a b), or
///                         the plan induced or with a counted tail; or out
///                         of scope: twins sharing fewer than two
///                         neighbours (stars)
///   sb-unkilled-automorphism   some automorphic image pair survives the
///                         constraints (overcount) — Grochow–Kellis check
///   sb-kills-valid-embedding   some subgraph instance has no surviving
///                         match (undercount) — Grochow–Kellis check
///   sb-exhaustive-skipped the orbit check was skipped (pattern too large)
///   cover-incomplete      some backward neighbor of a vertex is not covered
///                         by its K1/K2 operands (Equation 6 violated)
///   cover-overreach       an operand constrains adjacency to a non-neighbor
///                         (kills valid embeddings)
///   cover-label-mismatch  a K2 operand whose label filter is stricter than
///                         the target vertex's
///   cover-operand-order   an operand is used before sigma makes it
///                         available (K1 before MAT, K2 before COMP)
///   cover-not-minimal     a strictly smaller cover exists (warning; only
///                         checked when the plan enables minimum set cover)
///   induced-wiring        non-adjacency checks mis-wired for induced plans
///   cardinality-negative  a prefix estimate is negative or not finite
///   cardinality-nonmonotone   removing a closing edge decreased the
///                         estimate (refinement must not increase it)
///   bitmap-density-invalid    NaN/negative/non-finite bitmap density
///   bitmap-density-excessive  density > 1: the auto threshold exceeds
///                         every possible degree (warning)
///   bitmap-budget-zero    index enabled with a zero byte budget (warning)
///
/// Counted-tail plans (plan/iep.h term plans) add:
///
///   iep-tail-not-independent  two counted tail vertices are adjacent in
///                         the pattern (tail candidate sets would not be
///                         independent, so the product closure is wrong)
///   iep-tail-constrained  a counted tail vertex carries symmetry bounds or
///                         non-adjacency checks (tail candidates are
///                         counted, never materialized — nothing can be
///                         checked per candidate)
///   iep-tail-symmetry     counted-tail plan built with symmetry breaking
///                         (IEP needs every kernel embedding; restrictions
///                         would undercount)
///
/// LintIepDecomposition proves an inclusion–exclusion decomposition exact:
///
///   iep-partition         kernel + tail is not a partition of V(P), or the
///                         kernel is empty
///   iep-kernel-disconnected   the kernel does not induce a connected
///                         sub-pattern
///   iep-automorphism-count    stored |Aut(P)| differs from the recomputed
///                         group order
///   iep-term-mismatch     the term multiset differs from an independent
///                         re-expansion of the partition lattice (missing,
///                         extra, malformed, or mis-weighted term)
///   iep-sum-inexact       the sign-weighted term sum violates the
///                         falling-factorial identity
///                         sum_theta mu(theta) x^{#blocks} = x^(|S|) falling
///   iep-sum-skipped       the identity was skipped: label conflicts
///                         legitimately dropped terms (info)
///
/// The automorphism consistency check is exhaustive and exact: a
/// symmetry-breaking partial order is correct iff every orbit of the n!
/// relative orderings of pattern vertices under Aut(P) contains exactly one
/// ordering satisfying all constraints (embeddings are injective, so the
/// mapped data-vertex IDs induce a strict total order; automorphic images
/// of one subgraph instance induce exactly the orbit of that order). Zero
/// surviving orderings in an orbit means the instance is never reported;
/// two or more mean it is reported multiply. The check is
/// O(n! * |Aut(P)|), gated by LintOptions::max_orbit_work — far above
/// anything the paper's <= 6-vertex patterns need.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "pattern/pattern.h"
#include "plan/iep.h"
#include "plan/plan.h"

namespace light::analysis {

enum class LintSeverity : uint8_t {
  kInfo,
  kWarning,
  kError,
};

const char* LintSeverityName(LintSeverity severity);

/// One finding. `vertex` is the pattern vertex the finding concerns (-1 =
/// whole plan); `edge` is the constraint or pattern edge concerned
/// ({-1, -1} = none).
struct LintDiagnostic {
  LintSeverity severity = LintSeverity::kError;
  std::string rule_id;
  std::string message;
  int vertex = -1;
  std::pair<int, int> edge = {-1, -1};

  /// "error[sb-cycle] u0: message" — one line, no trailing newline.
  std::string ToString() const;
  /// {"severity":"error","rule":"sb-cycle","vertex":0,...} — one line.
  std::string ToJson() const;
};

struct LintReport {
  std::vector<LintDiagnostic> diagnostics;

  size_t errors() const;
  size_t warnings() const;
  bool empty() const { return diagnostics.empty(); }
  /// No error-severity findings (warnings and notes allowed).
  bool ok() const { return errors() == 0; }

  void Add(LintSeverity severity, std::string rule_id, std::string message,
           int vertex = -1, std::pair<int, int> edge = {-1, -1});

  /// One diagnostic per line; empty string when clean.
  std::string ToString() const;
  /// One JSON object per line (JSONL); empty string when clean.
  std::string ToJsonl() const;
};

/// Cardinality oracle for the sanity rules: estimated match count of the
/// vertex-induced subpattern P[mask]. Wrap a CardinalityEstimator with
/// AnalyticCardinalityFn below, or inject a synthetic one in tests.
using CardinalityFn = std::function<double(const Pattern&, uint32_t mask)>;

struct LintOptions {
  /// Work bound for the exhaustive automorphism-orbit check
  /// (n! * |Aut(P)| orderings examined). Above the bound the check is
  /// skipped with an info-severity `sb-exhaustive-skipped` note.
  uint64_t max_orbit_work = 10'000'000;
  /// Optional cardinality oracle; the cardinality-* rules only run when
  /// set. Must be deterministic — the analytic estimator qualifies, the
  /// sampling one is too noisy for a linter.
  CardinalityFn cardinality;
  /// Emit the cover-not-minimal warning (plans with minimum_set_cover on
  /// only).
  bool check_cover_minimality = true;
};

/// Lints `plan` against `pattern` (the pattern the caller is about to
/// enumerate; checked against plan.pattern). Pure function, no I/O.
LintReport LintPlan(const Pattern& pattern, const ExecutionPlan& plan,
                    const LintOptions& options = {});

/// Proves an inclusion–exclusion decomposition (plan/iep.h) of `pattern`
/// exact: the kernel/tail split partitions V(P) with an independent tail
/// and a connected kernel, the stored |Aut(P)| matches the recomputed group
/// order, the deduplicated term multiset matches an independent
/// re-expansion of the partition lattice, and the sign-weighted term sum
/// satisfies the falling-factorial identity
///   sum_terms coeff * x^{#merged} = x (x-1) ... (x-|S|+1)
/// at x = 0..|S|+2 (a degree-|S| polynomial identity, so |S|+3 points pin
/// it; skipped with an info note when label conflicts legitimately dropped
/// partition terms). Pure function, no I/O.
LintReport LintIepDecomposition(const Pattern& pattern,
                                const IepDecomposition& decomposition);

/// Value-range lint of the facade's bitmap-routing knobs (the
/// threshold/density/budget preconditions RunOptions::Validate enforces,
/// as structured diagnostics plus suspicious-but-valid warnings). Takes raw
/// values so analysis/ stays independent of the facade header; appends to
/// `report`.
void LintBitmapConfig(uint32_t bitmap_min_degree, double bitmap_density,
                      size_t bitmap_max_bytes, LintReport* report);

/// Wraps the deterministic analytic mode of CardinalityEstimator (the
/// sampling mode is unsuitable: noise would fire cardinality-nonmonotone
/// spuriously). The stats values are captured at call time; `stats` need
/// not outlive the returned function.
CardinalityFn AnalyticCardinalityFn(const GraphStats& stats);

}  // namespace light::analysis

#endif  // LIGHT_ANALYSIS_PLAN_LINTER_H_
