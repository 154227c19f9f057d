#ifndef LIGHT_PLAN_CARDINALITY_H_
#define LIGHT_PLAN_CARDINALITY_H_

#include <cstdint>
#include <unordered_map>

#include "common/rng.h"
#include "graph/graph.h"
#include "graph/graph_stats.h"
#include "pattern/pattern.h"

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
/// * Analytic (deterministic; the plan linter's cardinality oracle and
///   bench_ablation_plan's comparison column): first edge contributes 2M;
///   extensions multiply by sqrt(d_avg * E[d^2]/E[d]); closing edges by
///   the degree-based density min(1, d_avg / N).
///
/// Estimates are memoized per (pattern, mask); the order optimizer probes
/// the same masks across many candidate orders.
class CardinalityEstimator {
 public:
  /// Analytic mode.
  explicit CardinalityEstimator(const GraphStats& stats);

  /// Sampling mode over the data graph.
  CardinalityEstimator(const Graph& graph, const GraphStats& stats,
                       int num_samples = 256, uint64_t seed = 0x5eed);

  /// Estimated |R(P[mask])| (injective embeddings, no symmetry breaking).
  double EstimateMatches(const Pattern& pattern, uint32_t mask) const;

  /// Estimate for the full pattern.
  double EstimateMatches(const Pattern& pattern) const;

  /// Section VI estimates alpha (the average cost of one set intersection)
  /// as the maximum expand factor; this returns the analytic extension
  /// factor which upper-bounds the per-step factors.
  double ExtensionFactor() const { return extend_; }

 private:
  double AnalyticEstimate(const Pattern& pattern, uint32_t mask) const;
  double SampleComponent(const Pattern& pattern, uint32_t component) const;

  const Graph* graph_ = nullptr;
  int num_samples_ = 0;
  double n_;
  double two_m_;
  double extend_;
  double close_;
  mutable Rng rng_;
  mutable std::unordered_map<uint64_t, double> cache_;
};

}  // namespace light

#endif  // LIGHT_PLAN_CARDINALITY_H_
