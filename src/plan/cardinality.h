#ifndef LIGHT_PLAN_CARDINALITY_H_
#define LIGHT_PLAN_CARDINALITY_H_

#include <cstdint>
#include <unordered_map>

#include "common/rng.h"
#include "graph/graph.h"
#include "graph/graph_stats.h"
#include "pattern/pattern.h"
#include "pattern/symmetry_breaking.h"

namespace light {

/// Estimates |R(P')| for vertex-induced subgraphs P' of the pattern, in the
/// style of SEED [13] as adopted by Section VI.
///
/// Two modes:
///
/// * Sampling (preferred, used when a data graph is supplied): SEED
///   "calculates an expand factor for each edge of P' by simulating the
///   construction of the partial results in R(P') through extending one
///   edge at each step". We do exactly that: keep a population of sampled
///   partial matches, extend them vertex by vertex, record the mean number
///   of valid extensions per step (the expand factor), and multiply the
///   factors. Sampling captures the degree correlations that analytic
///   models miss on skewed graphs.
///
///   The estimate is taken under a restriction set: the symmetry-breaking
///   constraints phi(a) < phi(b) with both endpoints in P' hold for every
///   sampled partial match, because the engine enumerates only those. A
///   constrained first edge is oriented to satisfy its constraint (M
///   ordered first edges, not 2M); each later step keeps only the
///   candidates inside the ID window that the bound endpoints of the new
///   vertex's constraints leave open. On a degree-ordered graph the
///   constraints cut some prefixes far more than others (the wedge
///   centered on a 4-cycle's lowest vertex shrinks about 20x, the path
///   from it about 2x), so orders are ranked on what actually runs.
///   Constraints between two components of a disconnected P' halve the
///   estimate each.
///
/// * Analytic (deterministic; the plan linter's cardinality oracle and
///   bench_ablation_plan's comparison column): first edge contributes 2M;
///   extensions multiply by sqrt(d_avg * E[d^2]/E[d]); closing edges by
///   the degree-based density min(1, d_avg / N). This mode ignores the
///   restriction set.
///
/// Estimates are memoized per (pattern, mask, constraints induced on the
/// mask); the order optimizer probes the same masks across many candidate
/// orders. A restricted connected component is in addition relabeled to a
/// canonical form, so isomorphic sub-problems (the order optimizer meets
/// many: a symmetric pattern's masks often induce the same constrained
/// sub-pattern) share one sample. Without
/// restrictions the estimates, and the random draws behind them, are those
/// of the unrestricted sampler.
class CardinalityEstimator {
 public:
  /// Analytic mode.
  explicit CardinalityEstimator(const GraphStats& stats);

  /// Sampling mode over the data graph.
  CardinalityEstimator(const Graph& graph, const GraphStats& stats,
                       int num_samples = 256, uint64_t seed = 0x5eed);

  /// Estimated |R(P[mask])|: injective embeddings of P[mask] that satisfy
  /// every constraint of `restrictions` whose endpoints both lie in the
  /// mask. An empty set estimates all injective embeddings.
  double EstimateMatches(const Pattern& pattern, uint32_t mask,
                         const PartialOrder& restrictions = {}) const;

  /// Estimate for the full pattern, without restrictions.
  double EstimateMatches(const Pattern& pattern) const;

  /// Section VI estimates alpha (the average cost of one set intersection)
  /// as the maximum expand factor; this returns the analytic extension
  /// factor which upper-bounds the per-step factors.
  double ExtensionFactor() const { return extend_; }

 private:
  double AnalyticEstimate(const Pattern& pattern, uint32_t mask) const;
  double RestrictedComponent(const Pattern& pattern, uint32_t component,
                             const PartialOrder& constraints) const;
  double SampleComponent(const Pattern& pattern, uint32_t component,
                         const PartialOrder& constraints) const;

  const Graph* graph_ = nullptr;
  int num_samples_ = 0;
  double n_;
  double two_m_;
  double extend_;
  double close_;
  mutable Rng rng_;
  mutable std::unordered_map<uint64_t, double> cache_;
  /// Restricted connected components by canonical code.
  mutable std::unordered_map<uint64_t, double> canonical_cache_;
};

}  // namespace light

#endif  // LIGHT_PLAN_CARDINALITY_H_
