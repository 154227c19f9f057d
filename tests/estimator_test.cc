// Tests of the SEED-style sampling cardinality estimator (plan/cardinality).
// Accuracy bounds are deliberately loose — the optimizer only needs
// order-consistent rankings — but the estimator must be deterministic,
// cached, and within an order of magnitude on well-behaved inputs.

#include "plan/cardinality.h"

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"
#include "pattern/catalog.h"
#include "reference.h"

namespace light {
namespace {

using ::light::testing::BruteForceCountMatches;

TEST(SamplingEstimatorTest, DeterministicAcrossCalls) {
  const Graph g = RelabelByDegree(BarabasiAlbert(2000, 4, /*seed=*/3));
  const GraphStats stats = ComputeGraphStats(g);
  Pattern p2;
  ASSERT_TRUE(FindPattern("P2", &p2).ok());
  const CardinalityEstimator a(g, stats, 128, /*seed=*/5);
  const CardinalityEstimator b(g, stats, 128, /*seed=*/5);
  EXPECT_DOUBLE_EQ(a.EstimateMatches(p2), b.EstimateMatches(p2));
  // Cached second call returns the identical value.
  EXPECT_DOUBLE_EQ(a.EstimateMatches(p2), a.EstimateMatches(p2));
}

TEST(SamplingEstimatorTest, ExactOnSingleVertexAndEdge) {
  const Graph g = RelabelByDegree(ErdosRenyi(500, 2500, /*seed=*/9));
  const GraphStats stats = ComputeGraphStats(g);
  const CardinalityEstimator est(g, stats);
  Pattern edge = Pattern::FromEdges(2, {{0, 1}});
  EXPECT_DOUBLE_EQ(est.EstimateMatches(edge, 0b01), 500.0);
  EXPECT_DOUBLE_EQ(est.EstimateMatches(edge), 5000.0);  // 2M ordered
}

TEST(SamplingEstimatorTest, WedgeCountWithinFactorTwoOnErdosRenyi) {
  // ER graphs have no degree correlation, so sampling should be accurate.
  const Graph g = RelabelByDegree(ErdosRenyi(800, 4800, /*seed=*/13));
  const GraphStats stats = ComputeGraphStats(g);
  const CardinalityEstimator est(g, stats, 512, /*seed=*/17);
  const Pattern wedge = Pattern::FromEdges(3, {{0, 1}, {1, 2}});
  const double actual =
      static_cast<double>(BruteForceCountMatches(wedge, g));
  const double estimate = est.EstimateMatches(wedge);
  EXPECT_GT(estimate, actual / 2.0);
  EXPECT_LT(estimate, actual * 2.0);
}

TEST(SamplingEstimatorTest, TriangleCountWithinFactorFour) {
  const Graph g = RelabelByDegree(ErdosRenyi(400, 6000, /*seed=*/19));
  const GraphStats stats = ComputeGraphStats(g);
  const CardinalityEstimator est(g, stats, 512, /*seed=*/23);
  Pattern triangle;
  ASSERT_TRUE(FindPattern("triangle", &triangle).ok());
  const double actual =
      static_cast<double>(6 * CountTriangles(g));  // ordered embeddings
  ASSERT_GT(actual, 0.0);
  const double estimate = est.EstimateMatches(triangle);
  EXPECT_GT(estimate, actual / 4.0);
  EXPECT_LT(estimate, actual * 4.0);
}

TEST(SamplingEstimatorTest, ZeroForImpossiblePatterns) {
  // A triangle-free graph: K5 estimate must be 0 (all samples die).
  const Graph g = RelabelByDegree(Cycle(100));
  const GraphStats stats = ComputeGraphStats(g);
  const CardinalityEstimator est(g, stats, 64, /*seed=*/29);
  Pattern k5;
  ASSERT_TRUE(FindPattern("k5", &k5).ok());
  EXPECT_DOUBLE_EQ(est.EstimateMatches(k5), 0.0);
}

TEST(SamplingEstimatorTest, DisconnectedMaskMultipliesComponents) {
  const Graph g = RelabelByDegree(ErdosRenyi(300, 1200, /*seed=*/31));
  const GraphStats stats = ComputeGraphStats(g);
  const CardinalityEstimator est(g, stats);
  // Pattern: edge (0,1) plus isolated vertex 2 in the mask.
  const Pattern p = Pattern::FromEdges(3, {{0, 1}});
  EXPECT_DOUBLE_EQ(est.EstimateMatches(p, 0b111),
                   est.EstimateMatches(p, 0b011) * 300.0);
}

TEST(AnalyticEstimatorTest, MatchesClosedFormsOnSimplePatterns) {
  const Graph g = RelabelByDegree(ErdosRenyi(1000, 8000, /*seed=*/37));
  const GraphStats stats = ComputeGraphStats(g);
  const CardinalityEstimator est(stats);  // analytic mode
  const Pattern wedge = Pattern::FromEdges(3, {{0, 1}, {1, 2}});
  // 2M * extension factor.
  EXPECT_DOUBLE_EQ(est.EstimateMatches(wedge),
                   2.0 * 8000.0 * est.ExtensionFactor());
  // A closing edge multiplies by the degree-based density d_avg / N.
  Pattern triangle;
  ASSERT_TRUE(FindPattern("triangle", &triangle).ok());
  EXPECT_DOUBLE_EQ(est.EstimateMatches(triangle),
                   2.0 * 8000.0 * est.ExtensionFactor() * (16.0 / 1000.0));
}

}  // namespace
}  // namespace light
