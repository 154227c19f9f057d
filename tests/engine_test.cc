#include "engine/enumerator.h"

#include <gtest/gtest.h>

#include <tuple>

#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"
#include "pattern/catalog.h"
#include "pattern/symmetry_breaking.h"
#include "plan/plan.h"
#include "reference.h"

namespace light {
namespace {

using ::light::testing::BruteForceCountMatches;

Graph SmallTestGraph() {
  // Two overlapping triangles plus a pendant path: (0,1,2) triangle,
  // (1,2,3) triangle, 3-4, 4-5.
  return GraphBuilder::FromEdges(
      {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}});
}

ExecutionPlan PlanFor(const Pattern& pattern, const Graph& graph,
                      PlanOptions options) {
  return BuildPlan(pattern, graph, ComputeGraphStats(graph), options);
}

TEST(EnumeratorTest, TriangleCountOnSmallGraph) {
  const Graph g = SmallTestGraph();
  Pattern triangle;
  ASSERT_TRUE(FindPattern("triangle", &triangle).ok());
  const ExecutionPlan plan = PlanFor(triangle, g, PlanOptions::Light());
  Enumerator enumerator(g, plan);
  // Two triangles: {0,1,2} and {1,2,3}.
  EXPECT_EQ(enumerator.Count(), 2u);
}

TEST(EnumeratorTest, CountsWithoutSymmetryBreakingEqualAllInjectiveMaps) {
  const Graph g = SmallTestGraph();
  Pattern triangle;
  ASSERT_TRUE(FindPattern("triangle", &triangle).ok());
  PlanOptions options = PlanOptions::Light();
  options.symmetry_breaking = false;
  const ExecutionPlan plan = PlanFor(triangle, g, options);
  Enumerator enumerator(g, plan);
  EXPECT_EQ(enumerator.Count(), BruteForceCountMatches(triangle, g));
  EXPECT_EQ(enumerator.Count(), 12u);  // 2 triangles x 3! automorphisms
}

// All four variants (SE, LM, MSC, LIGHT) must agree with brute force on
// every catalog pattern over a fixed random graph, with and without symmetry
// breaking.
class VariantAgreementTest
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(VariantAgreementTest, MatchesBruteForce) {
  const auto& [pattern_name, use_sb] = GetParam();
  Pattern pattern;
  ASSERT_TRUE(FindPattern(pattern_name, &pattern).ok());
  const Graph g = RelabelByDegree(ErdosRenyi(40, 180, /*seed=*/7));
  const PartialOrder order =
      use_sb ? ComputeSymmetryBreaking(pattern) : PartialOrder{};
  const uint64_t expected = BruteForceCountMatches(pattern, g, order);

  for (PlanOptions options : {PlanOptions::Se(), PlanOptions::Lm(),
                              PlanOptions::Msc(), PlanOptions::Light()}) {
    options.symmetry_breaking = use_sb;
    const ExecutionPlan plan = PlanFor(pattern, g, options);
    Enumerator enumerator(g, plan);
    EXPECT_EQ(enumerator.Count(), expected)
        << "pattern=" << pattern_name << " lazy="
        << options.lazy_materialization
        << " cover=" << options.minimum_set_cover << " sb=" << use_sb
        << "\nplan:\n"
        << plan.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, VariantAgreementTest,
    ::testing::Combine(
        ::testing::Values("P1", "P2", "P3", "P4", "P5", "P6", "P7", "triangle",
                          "path2", "path3", "star3", "c5", "c6"),
        ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, bool>>& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "_sb" : "_nosb");
    });

TEST(EnumeratorTest, SymmetryBreakingDividesByAutomorphismCount) {
  const Graph g = RelabelByDegree(BarabasiAlbert(60, 3, /*seed=*/11));
  for (const char* name : {"P1", "P2", "P3", "P5", "P7", "square"}) {
    Pattern pattern;
    ASSERT_TRUE(FindPattern(name, &pattern).ok());
    PlanOptions with_sb = PlanOptions::Light();
    PlanOptions without_sb = PlanOptions::Light();
    without_sb.symmetry_breaking = false;
    const ExecutionPlan plan_sb = PlanFor(pattern, g, with_sb);
    const ExecutionPlan plan_all = PlanFor(pattern, g, without_sb);
    Enumerator e_sb(g, plan_sb);
    Enumerator e_all(g, plan_all);
    const uint64_t subgraphs = e_sb.Count();
    const uint64_t all_matches = e_all.Count();
    EXPECT_EQ(all_matches, subgraphs * AutomorphismCount(pattern))
        << "pattern=" << name;
  }
}

TEST(EnumeratorTest, SeCompCountsMatchPropositionIII1) {
  // Proposition III.1: in SE, |Phi_u| for u = pi[i+1] equals |R(P_i^pi)|,
  // the number of matches of the partial pattern on the first i vertices.
  const Graph g = RelabelByDegree(ErdosRenyi(30, 120, /*seed=*/3));
  Pattern p2;
  ASSERT_TRUE(FindPattern("P2", &p2).ok());
  PlanOptions options = PlanOptions::Se();
  options.symmetry_breaking = false;  // the proposition is stated without SB
  const ExecutionPlan plan = PlanFor(p2, g, options);
  Enumerator enumerator(g, plan);
  enumerator.Count();
  const auto& comp = enumerator.stats().comp_counts;

  // For each prefix P_i (i >= 1), count matches of the induced subpattern
  // by brute force and compare with |Phi_{pi[i+1]}|.
  for (size_t i = 1; i + 1 <= plan.pi.size(); ++i) {
    // Build the induced pattern on pi[1..i] with remapped vertex ids.
    std::vector<int> verts(plan.pi.begin(),
                           plan.pi.begin() + static_cast<ptrdiff_t>(i));
    Pattern prefix(static_cast<int>(i));
    for (size_t a = 0; a < verts.size(); ++a) {
      for (size_t b = a + 1; b < verts.size(); ++b) {
        if (p2.HasEdge(verts[a], verts[b])) {
          prefix.AddEdge(static_cast<int>(a), static_cast<int>(b));
        }
      }
    }
    const uint64_t r_prefix = BruteForceCountMatches(prefix, g);
    const int next = plan.pi[i];  // u = pi[i+1] in 1-based paper notation
    EXPECT_EQ(comp[static_cast<size_t>(next)], r_prefix)
        << "prefix length " << i;
  }
}

TEST(EnumeratorTest, TimeLimitAborts) {
  const Graph g = RelabelByDegree(BarabasiAlbert(4000, 8, /*seed=*/21));
  Pattern p5;
  ASSERT_TRUE(FindPattern("P5", &p5).ok());
  const ExecutionPlan plan = PlanFor(p5, g, PlanOptions::Se());
  Enumerator enumerator(g, plan);
  enumerator.SetTimeLimit(1e-4);
  enumerator.Count();
  EXPECT_TRUE(enumerator.stats().timed_out);
}

TEST(EnumeratorTest, VisitorReceivesValidMatches) {
  const Graph g = SmallTestGraph();
  Pattern triangle;
  ASSERT_TRUE(FindPattern("triangle", &triangle).ok());
  const ExecutionPlan plan = PlanFor(triangle, g, PlanOptions::Light());
  Enumerator enumerator(g, plan);
  CollectingVisitor visitor;
  const uint64_t count = enumerator.Enumerate(&visitor);
  ASSERT_EQ(count, visitor.matches().size());
  for (const auto& match : visitor.matches()) {
    ASSERT_EQ(match.size(), 3u);
    for (const auto& [a, b] : triangle.Edges()) {
      EXPECT_TRUE(g.HasEdge(match[static_cast<size_t>(a)],
                            match[static_cast<size_t>(b)]));
    }
  }
}

TEST(EnumeratorTest, EarlyStopViaVisitor) {
  const Graph g = RelabelByDegree(ErdosRenyi(50, 300, /*seed=*/5));
  Pattern triangle;
  ASSERT_TRUE(FindPattern("triangle", &triangle).ok());
  const ExecutionPlan plan = PlanFor(triangle, g, PlanOptions::Light());
  Enumerator enumerator(g, plan);
  CollectingVisitor visitor(/*limit=*/5);
  enumerator.Enumerate(&visitor);
  EXPECT_EQ(visitor.matches().size(), 5u);
}

TEST(EnumeratorTest, CompleteGraphMatchesClosedForm) {
  // On K_n every ordered k-tuple of distinct vertices matches K_k.
  const Graph g = Complete(9);
  Pattern k4;
  ASSERT_TRUE(FindPattern("k4", &k4).ok());
  PlanOptions options = PlanOptions::Light();
  options.symmetry_breaking = false;
  const ExecutionPlan plan = PlanFor(k4, g, options);
  Enumerator enumerator(g, plan);
  EXPECT_EQ(enumerator.Count(), 9u * 8 * 7 * 6);
}

TEST(EnumeratorTest, EmptyishGraphYieldsZero) {
  const Graph g = Path(6);
  Pattern k4;
  ASSERT_TRUE(FindPattern("k4", &k4).ok());
  const ExecutionPlan plan = PlanFor(k4, g, PlanOptions::Light());
  Enumerator enumerator(g, plan);
  EXPECT_EQ(enumerator.Count(), 0u);
}

}  // namespace
}  // namespace light
