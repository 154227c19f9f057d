#include "baselines/cfl_like.h"
#include "baselines/eh_like.h"

#include <gtest/gtest.h>

#include "engine/enumerator.h"
#include "gen/generators.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"
#include "pattern/catalog.h"
#include "plan/execution_order.h"
#include "plan/plan.h"

namespace light {
namespace {

uint64_t LightCount(const Graph& g, const Pattern& p) {
  const ExecutionPlan plan =
      BuildPlan(p, g, ComputeGraphStats(g), PlanOptions::Light());
  Enumerator enumerator(g, plan);
  return enumerator.Count();
}

TEST(CflLikeTest, OrderIsConnectedBfsFromDensestVertex) {
  Pattern p6;
  ASSERT_TRUE(FindPattern("P6", &p6).ok());
  const auto order = CflLikeOrder(p6);
  ASSERT_EQ(order.size(), 5u);
  // Root is the max-degree vertex (u0 and u1 tie at degree 4; id wins).
  EXPECT_EQ(order[0], 0);
  EXPECT_TRUE(IsConnectedOrder(p6, order));
}

TEST(CflLikeTest, CountsAgreeWithLight) {
  const Graph g = RelabelByDegree(BarabasiAlbert(400, 4, /*seed=*/61));
  for (const char* name : {"P1", "P2", "P4", "P6"}) {
    Pattern p;
    ASSERT_TRUE(FindPattern(name, &p).ok());
    const ExecutionPlan plan = BuildCflLikePlan(p, /*symmetry_breaking=*/true);
    Enumerator enumerator(g, plan);
    EXPECT_EQ(enumerator.Count(), LightCount(g, p)) << name;
  }
}

TEST(CflLikeTest, UsesBinarySearchKernel) {
  Pattern p2;
  ASSERT_TRUE(FindPattern("P2", &p2).ok());
  const ExecutionPlan plan = BuildCflLikePlan(p2, true);
  EXPECT_EQ(plan.options.kernel, IntersectKernel::kBinarySearch);
  EXPECT_FALSE(plan.options.lazy_materialization);
  EXPECT_FALSE(plan.options.minimum_set_cover);
}

TEST(EhLikeTest, GlobalOrderOfFig1aPatternMatchesPaper) {
  // Section VIII-B1: EH generates pi^3(P2) = (u1, u3, u0, u2).
  Pattern p2;
  ASSERT_TRUE(FindPattern("P2", &p2).ok());
  EXPECT_EQ(EhGlobalOrder(p2), (std::vector<int>{1, 3, 0, 2}));
  // That order is disconnected — the source of EH's extra intersections.
  EXPECT_FALSE(IsConnectedOrder(p2, EhGlobalOrder(p2)));
}

TEST(EhLikeTest, CountsAgreeWithLight) {
  const Graph g = RelabelByDegree(BarabasiAlbert(200, 4, /*seed=*/67));
  for (const char* name : {"P1", "P2", "P3", "P4", "P6"}) {
    Pattern p;
    ASSERT_TRUE(FindPattern(name, &p).ok());
    const BspResult result = RunEhLike(g, p, {});
    ASSERT_TRUE(result.status.ok()) << name << ": "
                                    << result.status.ToString();
    EXPECT_EQ(result.num_matches, LightCount(g, p)) << name;
  }
}

TEST(EhLikeTest, DisconnectedOrderCostsMoreIntersections) {
  // The paper's Figure 5 shape: EH does orders of magnitude more
  // intersections than SE on P2 because its order is disconnected.
  const Graph g = RelabelByDegree(BarabasiAlbert(300, 3, /*seed=*/71));
  Pattern p2;
  ASSERT_TRUE(FindPattern("P2", &p2).ok());

  PlanOptions se = PlanOptions::Se();
  const ExecutionPlan se_plan =
      BuildPlan(p2, g, ComputeGraphStats(g), se);
  Enumerator se_enum(g, se_plan);
  se_enum.Count();

  const ExecutionPlan eh_plan = BuildPlanWithOrder(p2, EhGlobalOrder(p2), se);
  Enumerator eh_enum(g, eh_plan);
  EXPECT_EQ(eh_enum.Count(), se_enum.stats().num_matches);
  EXPECT_GT(eh_enum.stats().intersections.num_intersections,
            10 * se_enum.stats().intersections.num_intersections);
}

TEST(EhLikeTest, SmallMemoryBudgetFailsOnBagPatterns) {
  Pattern p4;
  ASSERT_TRUE(FindPattern("P4", &p4).ok());
  const Graph g = RelabelByDegree(BarabasiAlbert(3000, 6, /*seed=*/73));
  BspOptions options;
  options.memory_budget_bytes = 4096;
  const BspResult result = RunEhLike(g, p4, options);
  EXPECT_EQ(result.status.code(), Status::Code::kResourceExhausted);
}

}  // namespace
}  // namespace light
