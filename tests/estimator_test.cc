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
#include "pattern/symmetry_breaking.h"
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

// P[mask] renumbered 0..s-1 in vertex order, with the constraints that have
// both endpoints in the mask.
Pattern InducedSubpattern(const Pattern& p, uint32_t mask,
                          const PartialOrder& constraints,
                          PartialOrder* induced) {
  std::vector<int> index(static_cast<size_t>(p.NumVertices()), -1);
  int s = 0;
  for (int u = 0; u < p.NumVertices(); ++u) {
    if ((mask >> u) & 1u) index[static_cast<size_t>(u)] = s++;
  }
  Pattern out(s);
  for (const auto& [u, v] : p.Edges()) {
    if (((mask >> u) & 1u) && ((mask >> v) & 1u)) {
      out.AddEdge(index[static_cast<size_t>(u)], index[static_cast<size_t>(v)]);
    }
  }
  induced->clear();
  for (const auto& [a, b] : constraints) {
    if (((mask >> a) & 1u) && ((mask >> b) & 1u)) {
      induced->emplace_back(index[static_cast<size_t>(a)],
                            index[static_cast<size_t>(b)]);
    }
  }
  return out;
}

TEST(RestrictedEstimatorTest, PrefixesOfTheFourCycleWithinFactorTwo) {
  // The Grochow–Kellis order of P1 is u0<u1, u0<u2, u0<u3, u1<u3; on a
  // degree-ordered clustered graph it cuts the wedge {u0,u1,u3} centered on
  // the lowest vertex far more than the path {u0,u1,u2}. The estimates
  // must follow the exact restriction-satisfying counts.
  const Graph g =
      RelabelByDegree(BarabasiAlbertClustered(500, 4, 0.4, /*seed=*/11));
  const CardinalityEstimator est(g, ComputeGraphStats(g));
  Pattern p1;
  ASSERT_TRUE(FindPattern("P1", &p1).ok());
  const PartialOrder gk = ComputeSymmetryBreaking(p1);
  for (const uint32_t mask : {0b0011u, 0b1011u, 0b0111u}) {
    PartialOrder induced;
    const Pattern sub = InducedSubpattern(p1, mask, gk, &induced);
    const double actual =
        static_cast<double>(BruteForceCountMatches(sub, g, induced));
    ASSERT_GT(actual, 0.0);
    const double estimate = est.EstimateMatches(p1, mask, gk);
    EXPECT_GT(estimate, actual / 2.0) << "mask " << mask;
    EXPECT_LT(estimate, actual * 2.0) << "mask " << mask;
    // The unrestricted estimate of the wedge is ~18x the count.
    if (mask == 0b1011u) {
      EXPECT_GT(est.EstimateMatches(p1, mask), 10.0 * actual);
    }
  }
}

TEST(RestrictedEstimatorTest, ConstrainedFirstEdgeIsExactlyM) {
  const Graph g = RelabelByDegree(ErdosRenyi(500, 2500, /*seed=*/9));
  const CardinalityEstimator est(g, ComputeGraphStats(g));
  const Pattern edge = Pattern::FromEdges(2, {{0, 1}});
  EXPECT_DOUBLE_EQ(est.EstimateMatches(edge, 0b11, {{0, 1}}), 2500.0);
  EXPECT_DOUBLE_EQ(est.EstimateMatches(edge, 0b11, {{1, 0}}), 2500.0);
  EXPECT_DOUBLE_EQ(est.EstimateMatches(edge, 0b11), 5000.0);
  // A constraint with an endpoint outside the mask is not checked yet.
  Pattern p1;
  ASSERT_TRUE(FindPattern("P1", &p1).ok());
  EXPECT_DOUBLE_EQ(est.EstimateMatches(p1, 0b0011, {{0, 2}}), 5000.0);
}

TEST(RestrictedEstimatorTest, ConstraintAcrossComponentsHalves) {
  const Graph g = RelabelByDegree(ErdosRenyi(300, 1200, /*seed=*/31));
  const CardinalityEstimator est(g, ComputeGraphStats(g));
  Pattern p1;
  ASSERT_TRUE(FindPattern("P1", &p1).ok());
  // {u1, u3} are not adjacent in the 4-cycle: two singletons, one
  // constraint between them.
  EXPECT_DOUBLE_EQ(est.EstimateMatches(p1, 0b1010, {{1, 3}}),
                   300.0 * 300.0 / 2.0);
}

TEST(RestrictedEstimatorTest, IsomorphicSubproblemsShareOneEstimate) {
  const Graph g =
      RelabelByDegree(BarabasiAlbertClustered(800, 4, 0.4, /*seed=*/5));
  const CardinalityEstimator est(g, ComputeGraphStats(g));
  Pattern p1;
  ASSERT_TRUE(FindPattern("P1", &p1).ok());
  // The path u0-u1-u2 with its ends ordered, and the path u1-u2-u3 with its
  // ends ordered, are one restricted sub-problem numbered two ways.
  EXPECT_DOUBLE_EQ(est.EstimateMatches(p1, 0b0111, {{0, 2}}),
                   est.EstimateMatches(p1, 0b1110, {{1, 3}}));
}

TEST(RestrictedEstimatorTest, EmptyRestrictionsReproduceUnrestrictedSampler) {
  // Hex-exact estimates of the sampler before it took restrictions, for
  // this graph, the default seed and this call sequence: with no
  // constraints the estimates and the random draws behind them are
  // unchanged, so unrestricted plans (no symmetry breaking, IEP kernels)
  // stay byte-identical.
  const Graph g =
      RelabelByDegree(BarabasiAlbertClustered(1500, 5, 0.4, /*seed=*/41));
  const CardinalityEstimator est(g, ComputeGraphStats(g));
  Pattern p1;
  Pattern p5;
  Pattern p6;
  ASSERT_TRUE(FindPattern("P1", &p1).ok());
  ASSERT_TRUE(FindPattern("P5", &p5).ok());
  ASSERT_TRUE(FindPattern("P6", &p6).ok());
  EXPECT_EQ(est.EstimateMatches(p1, 0b0111, {}), 0x1.a77ea2p+18);
  EXPECT_EQ(est.EstimateMatches(p1, 0b1011, {}), 0x1.5d71b1p+18);
  EXPECT_EQ(est.EstimateMatches(p1, 0b1111, {}), 0x1.4a357d8p+18);
  EXPECT_EQ(est.EstimateMatches(p5, 0b111111, {}), 0x1.36423ae2e88p+16);
  EXPECT_EQ(est.EstimateMatches(p6, 0b11111, {}), 0x1.ace8ff555p+14);
}

TEST(AnalyticEstimatorTest, IgnoresRestrictions) {
  const Graph g = RelabelByDegree(ErdosRenyi(1000, 8000, /*seed=*/37));
  const CardinalityEstimator est(ComputeGraphStats(g));
  Pattern p1;
  ASSERT_TRUE(FindPattern("P1", &p1).ok());
  const PartialOrder gk = ComputeSymmetryBreaking(p1);
  for (uint32_t mask = 1; mask < 16; ++mask) {
    EXPECT_EQ(est.EstimateMatches(p1, mask, gk), est.EstimateMatches(p1, mask));
  }
}

}  // namespace
}  // namespace light
