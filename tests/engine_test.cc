#include "engine/enumerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <tuple>
#include <vector>

#include "common/rng.h"

#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"
#include "pattern/catalog.h"
#include "pattern/parse.h"
#include "pattern/pattern.h"
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

class CountingVisitor : public MatchVisitor {
 public:
  bool OnMatch(std::span<const VertexID>) override {
    ++matches;
    return true;
  }
  uint64_t matches = 0;
};

// COMP windows only cut candidates some MAT would reject, and the counted
// leaf adds what the per-candidate loop would: with and without windows the
// results and every MAT extension count agree, and the COMP work can only
// fall. Count() takes the counted leaf and Enumerate(visitor) the
// per-candidate loop, so their MAT extension counts must agree too.
TEST(CompWindowTest, WindowsChangeWorkNotResults) {
  std::vector<Graph> graphs;
  graphs.push_back(RelabelByDegree(ErdosRenyi(40, 170, /*seed=*/31)));
  graphs.push_back(RelabelByDegree(BarabasiAlbert(45, 3, /*seed=*/32)));
  graphs.push_back(RelabelByDegree(ErdosRenyi(28, 140, /*seed=*/33)));
  size_t windowed_plans = 0;
  for (const Graph& g : graphs) {
    Rng rng(g.NumVertices());
    std::vector<uint32_t> labels(g.NumVertices());
    for (uint32_t& label : labels) label = 1 + rng.NextBounded(2);
    const GraphStats stats = ComputeGraphStats(g);
    for (const PatternEntry& entry : PatternCatalog()) {
      for (const bool induced : {false, true}) {
        for (const bool labeled : {false, true}) {
          Pattern pattern = entry.pattern;
          if (labeled) {
            for (int u = 0; u < pattern.NumVertices(); u += 2) {
              pattern.SetLabel(u, 1 + static_cast<uint32_t>(u / 2 % 2));
            }
          }
          PlanOptions options = PlanOptions::Light();
          options.induced = induced;
          const ExecutionPlan plan = BuildPlan(pattern, g, stats, options);
          ExecutionPlan cleared = plan;
          cleared.comp_windows.clear();
          windowed_plans += plan.HasCompWindows() ? 1 : 0;
          EngineStats counted;
          for (const bool visit : {false, true}) {
            const std::vector<uint32_t>* data_labels =
                labeled ? &labels : nullptr;
            Enumerator with(g, plan, data_labels);
            Enumerator without(g, cleared, data_labels);
            CountingVisitor with_visitor;
            CountingVisitor without_visitor;
            const uint64_t a =
                visit ? with.Enumerate(&with_visitor) : with.Count();
            const uint64_t b =
                visit ? without.Enumerate(&without_visitor) : without.Count();
            const std::string where =
                entry.name + (induced ? " induced" : " edge") +
                (labeled ? " labeled" : "") + (visit ? " visitor" : " count") +
                " |V|=" + std::to_string(g.NumVertices()) + "\n" +
                plan.ToString();
            EXPECT_EQ(a, b) << where;
            EXPECT_EQ(with_visitor.matches, without_visitor.matches) << where;
            const EngineStats& ws = with.stats();
            const EngineStats& wo = without.stats();
            EXPECT_EQ(ws.mat_counts, wo.mat_counts) << where;
            EXPECT_EQ(ws.num_partial_results, wo.num_partial_results) << where;
            EXPECT_LE(ws.intersections.num_intersections,
                      wo.intersections.num_intersections)
                << where;
            EXPECT_LE(ws.intersections.elements, wo.intersections.elements)
                << where;
            for (size_t u = 0; u < ws.comp_counts.size(); ++u) {
              EXPECT_LE(ws.comp_counts[u], wo.comp_counts[u])
                  << "u" << u << " " << where;
            }
            if (!visit) {
              counted = ws;
            } else {
              EXPECT_EQ(counted.mat_counts, ws.mat_counts) << where;
              EXPECT_EQ(counted.num_partial_results, ws.num_partial_results)
                  << where;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(windowed_plans, 0u);
}

// The counted leaf subtracts bound vertices that fall inside its window.
// Path u0-u1-u2-u3 with phi(u0) < phi(u3), order (u1, u2, u0, u3), on the
// data path 0-1-2-3: binding u1 -> 1, u2 -> 2, u0 -> 0 leaves u3 the
// candidates N(2) = {1, 3} inside the window (0, 4), and the bound 1 must
// not count. The one subgraph is reported once.
TEST(CompWindowTest, CountedLeafSubtractsBoundVertexInWindow) {
  const Graph g = GraphBuilder::FromEdges({{0, 1}, {1, 2}, {2, 3}});
  Pattern path3;
  ASSERT_TRUE(FindPattern("path3", &path3).ok());
  for (const PlanOptions& options : {PlanOptions::Light(), PlanOptions::Se()}) {
    const ExecutionPlan plan =
        BuildPlanWithConstraints(path3, {1, 2, 0, 3}, options, {{0, 3}});
    // Eager plans end COMP(u3), MAT(u3) (the fused count); the lazy one
    // materializes u0 in between (the count over the stored set).
    const bool fused = plan.sigma[plan.sigma.size() - 2].type ==
                       OpType::kCompute;
    EXPECT_EQ(fused, !options.lazy_materialization) << plan.ToString();
    Enumerator enumerator(g, plan);
    EXPECT_EQ(enumerator.Count(), 1u) << plan.ToString();
    EXPECT_EQ(enumerator.stats().mat_counts[3], 1u);
    CountingVisitor visitor;
    EXPECT_EQ(enumerator.Enumerate(&visitor), 1u);
    EXPECT_EQ(enumerator.stats().mat_counts[3], 1u);
  }
}

// A MAT skips a bound non-neighbour that lies in its candidate set. Path
// u0-u1-u2-u3, order (u0, u1, u2, u3), no symmetry breaking, on the data
// path 0-1-2-3: C(u2) = N(phi(u1)) always holds phi(u0), which u2 must not
// take. u2 binds 4 times: (0,1,2), (1,2,3), (2,1,0), (3,2,1).
TEST(EnumeratorTest, MatSkipsBoundNonNeighbourInCandidates) {
  const Graph g = GraphBuilder::FromEdges({{0, 1}, {1, 2}, {2, 3}});
  Pattern path3;
  ASSERT_TRUE(FindPattern("path3", &path3).ok());
  PlanOptions options = PlanOptions::Light();
  options.symmetry_breaking = false;
  const ExecutionPlan plan = BuildPlanWithOrder(path3, {0, 1, 2, 3}, options);
  Enumerator enumerator(g, plan);
  EXPECT_EQ(enumerator.Count(), 2u) << plan.ToString();
  EXPECT_EQ(enumerator.stats().mat_counts[2], 4u);
  CountingVisitor visitor;
  EXPECT_EQ(enumerator.Enumerate(&visitor), 2u);
  EXPECT_EQ(enumerator.stats().mat_counts[2], 4u);
}

// The twin closure changes the work of a count-only run, not its results:
// against the same plan with the closure cleared, counts, MAT extension
// counts and partial results agree, and COMP calls, intersections and
// elements scanned can only fall. Visitor runs walk sigma either way.
void ExpectClosureKeepsResults(const Graph& g, const ExecutionPlan& plan,
                               const std::vector<uint32_t>* labels,
                               const std::string& where) {
  ExecutionPlan cleared = plan;
  cleared.twin_closure.clear();
  for (const bool visit : {false, true}) {
    Enumerator with(g, plan, labels);
    Enumerator without(g, cleared, labels);
    CountingVisitor with_visitor;
    CountingVisitor without_visitor;
    const uint64_t a = visit ? with.Enumerate(&with_visitor) : with.Count();
    const uint64_t b =
        visit ? without.Enumerate(&without_visitor) : without.Count();
    const std::string at = where + (visit ? " visitor\n" : " count\n") +
                           plan.ToString();
    EXPECT_EQ(a, b) << at;
    EXPECT_EQ(with_visitor.matches, without_visitor.matches) << at;
    const EngineStats& ws = with.stats();
    const EngineStats& wo = without.stats();
    EXPECT_EQ(ws.mat_counts, wo.mat_counts) << at;
    EXPECT_EQ(ws.num_partial_results, wo.num_partial_results) << at;
    EXPECT_LE(ws.intersections.num_intersections,
              wo.intersections.num_intersections)
        << at;
    EXPECT_LE(ws.intersections.elements, wo.intersections.elements) << at;
    for (size_t u = 0; u < ws.comp_counts.size(); ++u) {
      EXPECT_LE(ws.comp_counts[u], wo.comp_counts[u]) << "u" << u << " " << at;
    }
  }
}

std::vector<Graph> TwinTestGraphs() {
  std::vector<Graph> graphs;
  graphs.push_back(RelabelByDegree(ErdosRenyi(40, 170, /*seed=*/41)));
  graphs.push_back(RelabelByDegree(BarabasiAlbert(45, 3, /*seed=*/42)));
  graphs.push_back(RelabelByDegree(ErdosRenyi(28, 140, /*seed=*/43)));
  return graphs;
}

TEST(TwinClosureTest, ClosureChangesWorkNotResults) {
  size_t closure_plans = 0;
  size_t leaf_plans = 0;
  for (const Graph& g : TwinTestGraphs()) {
    Rng rng(g.NumVertices());
    std::vector<uint32_t> labels(g.NumVertices());
    for (uint32_t& label : labels) label = 1 + rng.NextBounded(2);
    const GraphStats stats = ComputeGraphStats(g);
    for (const PatternEntry& entry : PatternCatalog()) {
      for (const bool induced : {false, true}) {
        for (const bool labeled : {false, true}) {
          Pattern pattern = entry.pattern;
          if (labeled) {
            for (int u = 0; u < pattern.NumVertices(); u += 2) {
              pattern.SetLabel(u, 1 + static_cast<uint32_t>(u / 2 % 2));
            }
          }
          PlanOptions options = PlanOptions::Light();
          options.induced = induced;
          const ExecutionPlan plan = BuildPlan(pattern, g, stats, options);
          closure_plans += plan.HasTwinClosure() ? 1 : 0;
          leaf_plans += plan.HasTwinLeaf() ? 1 : 0;
          ExpectClosureKeepsResults(
              g, plan, labeled ? &labels : nullptr,
              entry.name + (induced ? " induced" : " edge") +
                  (labeled ? " labeled" : "") +
                  " |V|=" + std::to_string(g.NumVertices()));
        }
      }
    }
  }
  EXPECT_GT(closure_plans, leaf_plans);
  EXPECT_GT(leaf_plans, 0u);
}

// Ad-hoc shapes under every connected order: a square with a pendant on
// u0 (with the pendant bound first, its image can lie in S or be a w, and
// must count for neither), K2,3 (three twins close on the far side, or two
// end sigma as a leaf), a book with a pendant on a page (the pendant's
// image can lie in the other pages' set) and a diamond with a pendant on
// its spine.
TEST(TwinClosureTest, EveryOrderOfPendantSquareAndK23) {
  const std::pair<const char*, const char*> shapes[] = {
      {"pendant square", "0-1,1-2,2-3,3-0,0-4"},
      {"K2,3", "0-2,0-3,0-4,1-2,1-3,1-4"},
      {"book3 with a pendant page", "0-1,0-2,0-3,0-4,1-2,1-3,1-4,2-5"},
      {"diamond with a pendant spine", "0-1,0-2,0-3,1-2,2-3,0-4"},
  };
  for (const auto& [name, edges] : shapes) {
    Pattern pattern;
    ASSERT_TRUE(ParsePattern(edges, &pattern).ok()) << edges;
    size_t closure_plans = 0;
    std::vector<int> pi(static_cast<size_t>(pattern.NumVertices()));
    std::iota(pi.begin(), pi.end(), 0);
    do {
      if (!IsConnectedOrder(pattern, pi)) continue;
      const ExecutionPlan plan =
          BuildPlanWithOrder(pattern, pi, PlanOptions::Light());
      if (!plan.HasTwinClosure()) continue;
      ++closure_plans;
      for (const Graph& g : TwinTestGraphs()) {
        ExpectClosureKeepsResults(g, plan, nullptr, name);
      }
    } while (std::next_permutation(pi.begin(), pi.end()));
    EXPECT_GT(closure_plans, 0u) << name;
  }
}

// A count-only P5 (book4) run takes the leaf at COMP(u2): the pages' alias
// COMPs never run, and the pages' MAT extensions are binomials of the
// spine's common neighbourhood.
TEST(TwinClosureTest, BookLeafSkipsTheAliasComps) {
  const Graph g = RelabelByDegree(BarabasiAlbert(2000, 6, /*seed=*/45));
  Pattern p5;
  ASSERT_TRUE(FindPattern("P5", &p5).ok());
  const ExecutionPlan plan = PlanFor(p5, g, PlanOptions::Light());
  ASSERT_EQ(plan.twin_closure, (std::vector<int>{2, 3, 4, 5}))
      << plan.ToString();
  ASSERT_LT(plan.TwinClosureB(), 0);
  Enumerator leaf(g, plan);
  ExecutionPlan cleared = plan;
  cleared.twin_closure.clear();
  Enumerator walk(g, cleared);
  EXPECT_EQ(leaf.Count(), walk.Count());
  EXPECT_GT(leaf.stats().num_matches, 0u);
  EXPECT_EQ(leaf.stats().mat_counts, walk.stats().mat_counts);
  EXPECT_EQ(leaf.stats().comp_counts[2], walk.stats().comp_counts[2]);
  for (const int page : {3, 4, 5}) {
    EXPECT_EQ(leaf.stats().comp_counts[static_cast<size_t>(page)], 0u);
    EXPECT_GT(walk.stats().comp_counts[static_cast<size_t>(page)], 0u);
  }
}

// A time limit stops a leaf too; a stopped run adds no partial binomials,
// and the next run on the same enumerator counts in full.
TEST(TwinClosureTest, TimeLimitStopsLeaf) {
  const Graph g = RelabelByDegree(BarabasiAlbert(6000, 8, /*seed=*/44));
  for (const char* name : {"P5", "P2"}) {
    Pattern pattern;
    ASSERT_TRUE(FindPattern(name, &pattern).ok());
    const ExecutionPlan plan = PlanFor(pattern, g, PlanOptions::Light());
    ASSERT_TRUE(plan.HasTwinLeaf()) << plan.ToString();
    ExecutionPlan cleared = plan;
    cleared.twin_closure.clear();
    Enumerator walk(g, cleared);
    const uint64_t expected = walk.Count();
    Enumerator enumerator(g, plan);
    enumerator.SetTimeLimit(1e-5);
    EXPECT_LE(enumerator.Count(), expected) << name;
    EXPECT_TRUE(enumerator.stats().timed_out) << name;
    enumerator.SetTimeLimit(std::numeric_limits<double>::infinity());
    EXPECT_EQ(enumerator.Count(), expected) << name;
    EXPECT_FALSE(enumerator.stats().timed_out) << name;
    EXPECT_EQ(enumerator.stats().mat_counts, walk.stats().mat_counts) << name;
  }
}

// A time limit stops the closure mid-scatter, and the scatter counters are
// left clean: the next run on the same enumerator counts in full.
TEST(TwinClosureTest, TimeLimitStopsClosure) {
  const Graph g = RelabelByDegree(BarabasiAlbert(6000, 8, /*seed=*/44));
  Pattern p1;
  ASSERT_TRUE(FindPattern("P1", &p1).ok());
  const ExecutionPlan plan = PlanFor(p1, g, PlanOptions::Light());
  ASSERT_TRUE(plan.HasTwinClosure()) << plan.ToString();
  Enumerator enumerator(g, plan);
  enumerator.SetTimeLimit(1e-4);
  enumerator.Count();
  EXPECT_TRUE(enumerator.stats().timed_out);
  enumerator.SetTimeLimit(std::numeric_limits<double>::infinity());
  const uint64_t full = enumerator.Count();
  EXPECT_FALSE(enumerator.stats().timed_out);
  ExecutionPlan cleared = plan;
  cleared.twin_closure.clear();
  Enumerator walk(g, cleared);
  EXPECT_EQ(full, walk.Count());
}

}  // namespace
}  // namespace light
