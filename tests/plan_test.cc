#include "plan/plan.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"
#include "light.h"
#include "pattern/catalog.h"
#include "pattern/parse.h"
#include "plan/cardinality.h"
#include "plan/execution_order.h"
#include "plan/order_optimizer.h"
#include "plan/set_cover.h"

namespace light {
namespace {

Pattern Fig1aPattern() {
  // The running-example pattern (Figure 1a / P2): 4-cycle plus chord (0,2).
  return Pattern::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
}

TEST(ExecutionOrderTest, PaperExampleSigma) {
  // Example IV.1: pi = (u0, u2, u1, u3) yields sigma =
  // (MAT u0, COMP u2, MAT u2, COMP u1, COMP u3, MAT u1, MAT u3).
  const Pattern p = Fig1aPattern();
  const std::vector<int> pi = {0, 2, 1, 3};
  const ExecutionOrder sigma = GenerateLazyExecutionOrder(p, pi);
  const ExecutionOrder expected = {
      {OpType::kMaterialize, 0}, {OpType::kCompute, 2},
      {OpType::kMaterialize, 2}, {OpType::kCompute, 1},
      {OpType::kCompute, 3},     {OpType::kMaterialize, 1},
      {OpType::kMaterialize, 3},
  };
  EXPECT_EQ(sigma, expected) << ExecutionOrderToString(sigma);
  EXPECT_TRUE(ValidateExecutionOrder(p, pi, sigma));
}

TEST(ExecutionOrderTest, EagerSigmaInterleaves) {
  const Pattern p = Fig1aPattern();
  const std::vector<int> pi = {0, 2, 1, 3};
  const ExecutionOrder sigma = GenerateEagerExecutionOrder(p, pi);
  ASSERT_EQ(sigma.size(), 7u);
  EXPECT_EQ(sigma[0], (Operation{OpType::kMaterialize, 0}));
  EXPECT_EQ(sigma[1], (Operation{OpType::kCompute, 2}));
  EXPECT_EQ(sigma[2], (Operation{OpType::kMaterialize, 2}));
  EXPECT_TRUE(ValidateExecutionOrder(p, pi, sigma));
}

TEST(ExecutionOrderTest, LazySigmaValidForAllCatalogPatternsAndOrders) {
  for (const PatternEntry& entry : PatternCatalog()) {
    if (!entry.pattern.IsConnected()) continue;
    const auto orders = EnumerateConnectedOrders(entry.pattern, {});
    for (const auto& pi : orders) {
      const ExecutionOrder lazy = GenerateLazyExecutionOrder(entry.pattern, pi);
      EXPECT_TRUE(ValidateExecutionOrder(entry.pattern, pi, lazy))
          << entry.name << ": " << ExecutionOrderToString(lazy);
      const ExecutionOrder eager =
          GenerateEagerExecutionOrder(entry.pattern, pi);
      EXPECT_TRUE(ValidateExecutionOrder(entry.pattern, pi, eager))
          << entry.name;
    }
  }
}

TEST(ExecutionOrderTest, AnchorAndFreeVerticesOfExample) {
  // Example IV.2: A(u3) = {u0, u2}, F(u3) = {u1}.
  const Pattern p = Fig1aPattern();
  const std::vector<int> pi = {0, 2, 1, 3};
  const ExecutionOrder sigma = GenerateLazyExecutionOrder(p, pi);
  const auto anchors = AnchorVertices(p, pi, sigma);
  const auto free = FreeVertices(p, pi, sigma);
  EXPECT_EQ(anchors[3], 0b0101u);  // u0, u2
  EXPECT_EQ(free[3], 0b0010u);     // u1
  EXPECT_EQ(anchors[1], 0b0101u);  // u1's anchors are also u0, u2
  EXPECT_EQ(free[1], 0u);
}

TEST(ExecutionOrderTest, AnchorsAreConnectedVertexCover) {
  // Proposition IV.1: A(u) is a vertex cover of P_i and induces a connected
  // subgraph.
  for (const char* name : {"P1", "P2", "P4", "P5", "P6", "P7"}) {
    Pattern p;
    ASSERT_TRUE(FindPattern(name, &p).ok());
    for (const auto& pi : EnumerateConnectedOrders(p, {})) {
      const ExecutionOrder sigma = GenerateLazyExecutionOrder(p, pi);
      const auto anchors = AnchorVertices(p, pi, sigma);
      uint32_t prefix_mask = 1u << pi[0];
      for (size_t i = 1; i < pi.size(); ++i) {
        const int u = pi[i];
        const uint32_t a = anchors[static_cast<size_t>(u)];
        // Vertex cover of P_i: every edge within the prefix has an endpoint
        // in A(u).
        for (int x = 0; x < p.NumVertices(); ++x) {
          for (int y = x + 1; y < p.NumVertices(); ++y) {
            if (!p.HasEdge(x, y)) continue;
            if (((prefix_mask >> x) & 1u) == 0 ||
                ((prefix_mask >> y) & 1u) == 0) {
              continue;
            }
            EXPECT_TRUE(((a >> x) & 1u) || ((a >> y) & 1u))
                << name << " u=" << u;
          }
        }
        EXPECT_TRUE(p.InducedConnected(a)) << name << " u=" << u;
        prefix_mask |= 1u << u;
      }
    }
  }
}

TEST(SetCoverTest, ExactSolverSmallInstances) {
  // Universe {0,1,2}; sets: {0}, {1}, {2}, {0,1}, {1,2}.
  const std::vector<uint32_t> sets = {0b001, 0b010, 0b100, 0b011, 0b110};
  const auto cover = MinimumSetCover(0b111, sets);
  EXPECT_EQ(cover.size(), 2u);
  uint32_t covered = 0;
  for (int idx : cover) covered |= sets[static_cast<size_t>(idx)];
  EXPECT_EQ(covered, 0b111u);
}

TEST(SetCoverTest, SingleSetCoversAll) {
  const std::vector<uint32_t> sets = {0b01, 0b10, 0b11};
  const auto cover = MinimumSetCover(0b11, sets);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(sets[static_cast<size_t>(cover[0])], 0b11u);
}

TEST(SetCoverTest, EmptyUniverse) {
  EXPECT_TRUE(MinimumSetCover(0, {0b1}).empty());
}

TEST(SetCoverTest, PrefersFewerSingletons) {
  // Two minimum covers of size 2 exist: {0,1}+{2} using a singleton, or
  // {0,1}+{1,2} with none. The tie-break must avoid the singleton.
  const std::vector<uint32_t> sets = {0b011, 0b100, 0b110};
  const auto cover = MinimumSetCover(0b111, sets);
  ASSERT_EQ(cover.size(), 2u);
  for (int idx : cover) {
    EXPECT_GT(__builtin_popcount(sets[static_cast<size_t>(idx)]), 1);
  }
}

TEST(OperandsTest, PaperExampleV1) {
  // Example V.1: for u3 with pi = (u0, u2, u1, u3), S' = {{u0, u2}} so
  // K1 = {} and K2 = {u1}; one assignment, zero intersections.
  const Pattern p = Fig1aPattern();
  const std::vector<int> pi = {0, 2, 1, 3};
  const auto operands = GenerateOperands(p, pi, /*use_set_cover=*/true);
  EXPECT_TRUE(operands[3].k1.empty());
  ASSERT_EQ(operands[3].k2.size(), 1u);
  EXPECT_EQ(operands[3].k2[0], 1);
  EXPECT_EQ(operands[3].NumIntersections(), 0);
  // u1's own operands: backward neighbors {u0, u2}, no reusable set.
  EXPECT_EQ(operands[1].k1.size(), 2u);
  EXPECT_TRUE(operands[1].k2.empty());
  EXPECT_EQ(operands[1].NumIntersections(), 1);
}

TEST(OperandsTest, WithoutSetCoverEqualsBackwardNeighbors) {
  const Pattern p = Fig1aPattern();
  const std::vector<int> pi = {0, 2, 1, 3};
  const auto operands = GenerateOperands(p, pi, /*use_set_cover=*/false);
  const auto backward = BackwardNeighbors(p, pi);
  for (int u = 0; u < p.NumVertices(); ++u) {
    EXPECT_EQ(operands[static_cast<size_t>(u)].k1,
              backward[static_cast<size_t>(u)]);
    EXPECT_TRUE(operands[static_cast<size_t>(u)].k2.empty());
  }
}

TEST(OperandsTest, PropositionV1CoverNeverWorse) {
  // w^(2)_u <= w^(1)_u for every vertex, pattern, and order.
  for (const PatternEntry& entry : PatternCatalog()) {
    if (!entry.pattern.IsConnected()) continue;
    for (const auto& pi : EnumerateConnectedOrders(entry.pattern, {})) {
      const auto with = GenerateOperands(entry.pattern, pi, true);
      const auto without = GenerateOperands(entry.pattern, pi, false);
      for (int u = 0; u < entry.pattern.NumVertices(); ++u) {
        EXPECT_LE(with[static_cast<size_t>(u)].NumIntersections(),
                  without[static_cast<size_t>(u)].NumIntersections())
            << entry.name;
      }
    }
  }
}

TEST(CardinalityTest, BasicMonotonicity) {
  const Graph g = BarabasiAlbert(2000, 5, /*seed=*/17);
  const CardinalityEstimator est(ComputeGraphStats(g));
  Pattern p2;
  ASSERT_TRUE(FindPattern("P2", &p2).ok());
  // Single vertex ~ N; single edge ~ 2M; larger patterns grow.
  EXPECT_DOUBLE_EQ(est.EstimateMatches(p2, 0b0001), 2000.0);
  EXPECT_DOUBLE_EQ(est.EstimateMatches(p2, 0b0101),
                   2.0 * static_cast<double>(g.NumEdges()));
  // Extending by a new vertex multiplies by the extension factor (> 1):
  // {u1, u2, u3} induces the wedge u1-u2-u3 in the diamond.
  EXPECT_GT(est.EstimateMatches(p2, 0b1110), est.EstimateMatches(p2, 0b0110));
  // Disconnected pair of vertices multiplies.
  EXPECT_DOUBLE_EQ(est.EstimateMatches(p2, 0b1010), 2000.0 * 2000.0);
}

TEST(CardinalityTest, DenserSubpatternsEstimateSmaller) {
  // Adding a closing edge multiplies by a probability <= 1.
  const Graph g = ErdosRenyi(3000, 15000, /*seed=*/23);
  const CardinalityEstimator est(ComputeGraphStats(g));
  const Pattern path = Pattern::FromEdges(3, {{0, 1}, {1, 2}});
  const Pattern tri = Pattern::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_LT(est.EstimateMatches(tri), est.EstimateMatches(path));
}

TEST(OrderOptimizerTest, AllOrdersConnectedAndComplete) {
  Pattern p4;
  ASSERT_TRUE(FindPattern("P4", &p4).ok());
  const auto orders = EnumerateConnectedOrders(p4, {});
  EXPECT_FALSE(orders.empty());
  for (const auto& pi : orders) {
    EXPECT_TRUE(IsConnectedOrder(p4, pi));
    EXPECT_EQ(pi.size(), static_cast<size_t>(p4.NumVertices()));
  }
}

TEST(OrderOptimizerTest, PartialOrderPruningRespected) {
  Pattern k4;
  ASSERT_TRUE(FindPattern("k4", &k4).ok());
  const PartialOrder po = ComputeSymmetryBreaking(k4);
  const auto orders = EnumerateConnectedOrders(k4, po);
  // K4's total order 0<1<2<3 admits exactly one permutation.
  ASSERT_EQ(orders.size(), 1u);
  EXPECT_EQ(orders[0], (std::vector<int>{0, 1, 2, 3}));
}

TEST(OrderOptimizerTest, CostPrefersDenseAnchors) {
  // For the Fig. 1a pattern the optimizer should avoid orders starting with
  // the sparse path side; mostly we assert determinism and validity.
  Pattern p2;
  ASSERT_TRUE(FindPattern("P2", &p2).ok());
  const Graph g = BarabasiAlbert(2000, 5, /*seed=*/29);
  const CardinalityEstimator est(ComputeGraphStats(g));
  const auto pi = OptimizeEnumerationOrder(p2, est, {}, true, true);
  EXPECT_TRUE(IsConnectedOrder(p2, pi));
  const auto pi_again = OptimizeEnumerationOrder(p2, est, {}, true, true);
  EXPECT_EQ(pi, pi_again);
}

TEST(PlanTest, VariantFactoriesSetFlags) {
  EXPECT_FALSE(PlanOptions::Se().lazy_materialization);
  EXPECT_FALSE(PlanOptions::Se().minimum_set_cover);
  EXPECT_TRUE(PlanOptions::Lm().lazy_materialization);
  EXPECT_FALSE(PlanOptions::Lm().minimum_set_cover);
  EXPECT_FALSE(PlanOptions::Msc().lazy_materialization);
  EXPECT_TRUE(PlanOptions::Msc().minimum_set_cover);
  EXPECT_TRUE(PlanOptions::Light().lazy_materialization);
  EXPECT_TRUE(PlanOptions::Light().minimum_set_cover);
}

TEST(PlanTest, BuildPlanProducesValidSigmaAndConstraints) {
  const Graph g = BarabasiAlbert(500, 4, /*seed=*/31);
  const GraphStats stats = ComputeGraphStats(g);
  for (const char* name : {"P1", "P2", "P3", "P4", "P5", "P6", "P7"}) {
    Pattern p;
    ASSERT_TRUE(FindPattern(name, &p).ok());
    const ExecutionPlan plan = BuildPlan(p, g, stats, PlanOptions::Light());
    EXPECT_TRUE(ValidateExecutionOrder(p, plan.pi, plan.sigma)) << name;
    // Every constraint endpoint pair must appear in exactly one direction.
    for (const auto& [a, b] : plan.partial_order) {
      const auto& lower = plan.lower_bounds[static_cast<size_t>(b)];
      const auto& upper = plan.upper_bounds[static_cast<size_t>(a)];
      const bool in_lower =
          std::find(lower.begin(), lower.end(), a) != lower.end();
      const bool in_upper =
          std::find(upper.begin(), upper.end(), b) != upper.end();
      EXPECT_TRUE(in_lower != in_upper) << name;
    }
  }
}

// A random renumbering of g followed by the degree relabeling: the same
// graph, with ties between equal-degree vertices broken differently.
Graph RenumberAndRelabel(const Graph& g, uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexID> perm(g.NumVertices());
  for (VertexID v = 0; v < g.NumVertices(); ++v) perm[v] = v;
  for (VertexID i = g.NumVertices(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
  }
  std::vector<std::pair<VertexID, VertexID>> edges;
  for (VertexID u = 0; u < g.NumVertices(); ++u) {
    for (const VertexID v : g.Neighbors(u)) {
      if (u < v) edges.emplace_back(perm[u], perm[v]);
    }
  }
  return RelabelByDegree(GraphBuilder::FromEdges(edges, g.NumVertices()));
}

// Under u0<u1, u0<u2, u0<u3, u1<u3 the wedge u1-u0-u3 at the lowest vertex
// is far smaller than the path u0-u1-u2 on a degree-ordered graph, so
// (u0,u1,u3,u2) is the fast order of the 4-cycle (7x on a 20k-vertex
// clustered BA graph). Only estimates taken under the restrictions see the
// gap; without them the two orders score within sampling noise, and the
// pick depends on how equal-degree vertices happen to be numbered.
std::vector<std::pair<std::string, Graph>> FourCycleGraphs() {
  std::vector<std::pair<std::string, Graph>> out;
  out.emplace_back("clustered-ba",
                   BarabasiAlbertClustered(3000, 5, 0.4, /*seed=*/71));
  out.emplace_back("rmat", RMat(12, 8.0, 0.52, 0.21, 0.21, /*seed=*/72));
  return out;
}

// The wedge u1-u0-u3 comes first, so u1 and u3 are twins that close on u2:
// the 4-cycle (P1, and the same shape as "square") gets the twin closure.
TEST(PlanTest, FourCyclePicksTheWedgeFirstUnderEveryNumbering) {
  for (const char* name : {"P1", "square"}) {
    Pattern cycle;
    ASSERT_TRUE(FindPattern(name, &cycle).ok());
    for (const auto& [graph_name, raw] : FourCycleGraphs()) {
      for (uint64_t seed = 1; seed <= 6; ++seed) {
        const Graph g = RenumberAndRelabel(raw, seed);
        const ExecutionPlan plan =
            BuildPlan(cycle, g, ComputeGraphStats(g), PlanOptions::Light());
        EXPECT_EQ(plan.pi, (std::vector<int>{0, 1, 3, 2}))
            << name << " " << graph_name << " numbering " << seed;
        EXPECT_EQ(plan.leaf.tail, (std::vector<int>{1, 3}))
            << name << " " << graph_name << " numbering " << seed;
        EXPECT_EQ(plan.leaf.b, 2)
            << name << " " << graph_name << " numbering " << seed;
      }
    }
  }
}

// The count-only leaf's scope. Twins get the twin form when they end sigma
// (P2/diamond's u1, u3; the pages of book4 = P5; K2,3's side of three; and
// one-neighbour twins: a star's leaves, path2's ends), the 4-cycle keeps
// its closing vertex, and a path's ends, P4's u2, u4 or P6's u3, u4 take
// the partition form. Without symmetry breaking no restriction orders
// twins, so no plan has the twin form over >= 2 vertices or a b.
TEST(PlanTest, TwinClosureScope) {
  Pattern k23;
  ASSERT_TRUE(ParsePattern("0-2,0-3,0-4,1-2,1-3,1-4", &k23).ok());
  for (const auto& [graph_name, raw] : FourCycleGraphs()) {
    const Graph g = RelabelByDegree(raw);
    const GraphStats stats = ComputeGraphStats(g);
    std::vector<std::pair<std::string, Pattern>> patterns = {{"K2,3", k23}};
    for (const PatternEntry& entry : PatternCatalog()) {
      patterns.emplace_back(entry.name, entry.pattern);
    }
    for (const auto& [name, pattern] : patterns) {
      const std::string at = name + " " + graph_name;
      PlanOptions no_symmetry = PlanOptions::Light();
      no_symmetry.symmetry_breaking = false;
      const ExecutionPlan unordered = BuildPlan(pattern, g, stats, no_symmetry);
      EXPECT_FALSE(unordered.leaf.twins() && unordered.leaf.tail.size() >= 2)
          << at;
      EXPECT_LT(unordered.leaf.b, 0) << at;
      const ExecutionPlan plan =
          BuildPlan(pattern, g, stats, PlanOptions::Light());
      const bool twins = name == "P2" || name == "diamond" || name == "P5" ||
                         name == "book4" || name == "K2,3" ||
                         name == "star3" || name == "star4" ||
                         name == "star5" || name == "path2";
      const bool closes = name == "P1" || name == "square";
      const bool partition = name == "path3" || name == "path4" ||
                             name == "P4" || name == "house" ||
                             name == "P6" || name == "chordal_house";
      ASSERT_FALSE(plan.leaf.empty()) << at;
      EXPECT_EQ(plan.leaf.twins() && plan.leaf.tail.size() >= 2,
                twins || closes)
          << at << "\n"
          << plan.ToString();
      EXPECT_EQ(plan.leaf.b >= 0, closes) << at;
      EXPECT_EQ(!plan.leaf.terms.empty(), partition) << at << "\n"
                                                      << plan.ToString();
      if (name == "P5" || name == "book4") {
        EXPECT_EQ(plan.leaf.tail, (std::vector<int>{2, 3, 4, 5})) << at;
        EXPECT_NE(plan.ToString().find("\nleaf: u2<u3<u4<u5\n"),
                  std::string::npos)
            << at;
      }
    }
  }
}

TEST(PlanTest, ToStringMentionsAllParts) {
  const Graph g = BarabasiAlbert(500, 4, /*seed=*/37);
  Pattern p2;
  ASSERT_TRUE(FindPattern("P2", &p2).ok());
  const ExecutionPlan plan =
      BuildPlan(p2, g, ComputeGraphStats(g), PlanOptions::Light());
  const std::string s = plan.ToString();
  EXPECT_NE(s.find("pi:"), std::string::npos);
  EXPECT_NE(s.find("sigma:"), std::string::npos);
  EXPECT_NE(s.find("operands"), std::string::npos);
}

// The planner reads |V|, |E| and the degree moments; the sampling
// estimator measures wedge closing itself. Counting triangles must
// therefore never change a plan.
TEST(PlanStatsTest, PlansDoNotDependOnTriangleCount) {
  const std::vector<std::pair<std::string, Graph>> graphs = [] {
    std::vector<std::pair<std::string, Graph>> out;
    out.emplace_back("clustered-ba", RelabelByDegree(BarabasiAlbertClustered(
                                         2000, 4, 0.4, /*seed=*/61)));
    out.emplace_back("rmat", RelabelByDegree(RMat(11, 8.0, 0.57, 0.19, 0.19,
                                                  /*seed=*/62)));
    return out;
  }();
  for (const auto& [graph_name, g] : graphs) {
    const GraphStats with_triangles = ComputeGraphStats(g, true);
    const GraphStats degrees_only = ComputeGraphStats(g);
    ASSERT_GT(with_triangles.num_triangles, 0u) << graph_name;
    const RunOptions options{};
    for (const std::string& name : ExperimentPatternNames()) {
      Pattern p;
      ASSERT_TRUE(FindPattern(name, &p).ok());
      EXPECT_EQ(BuildRunPlan(g, with_triangles, p, options).ToString(),
                BuildRunPlan(g, degrees_only, p, options).ToString())
          << graph_name << " " << name;
    }
  }
}

}  // namespace
}  // namespace light
