#include "engine/visitors.h"

#include <gtest/gtest.h>

#include <set>

#include "engine/enumerator.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"
#include "pattern/catalog.h"
#include "plan/plan.h"

namespace light {
namespace {

TEST(CollectingVisitorTest, CollectsAndLimits) {
  CollectingVisitor unlimited;
  const VertexID m1[] = {1, 2, 3};
  const VertexID m2[] = {4, 5, 6};
  EXPECT_TRUE(unlimited.OnMatch(m1));
  EXPECT_TRUE(unlimited.OnMatch(m2));
  EXPECT_EQ(unlimited.matches().size(), 2u);
  EXPECT_EQ(unlimited.matches()[1], (std::vector<VertexID>{4, 5, 6}));

  CollectingVisitor limited(2);
  EXPECT_TRUE(limited.OnMatch(m1));
  EXPECT_FALSE(limited.OnMatch(m2));  // reached the cap
  const auto taken = limited.TakeMatches();
  EXPECT_EQ(taken.size(), 2u);
}

TEST(FlatTupleVisitorTest, ProjectsColumnsInOrder) {
  std::vector<VertexID> out;
  FlatTupleVisitor visitor({2, 0}, /*tuple_limit=*/10, &out);
  const VertexID mapping[] = {10, 11, 12};
  EXPECT_TRUE(visitor.OnMatch(mapping));
  EXPECT_EQ(out, (std::vector<VertexID>{12, 10}));
  EXPECT_EQ(visitor.tuples(), 1u);
  EXPECT_FALSE(visitor.hit_limit());
}

TEST(FlatTupleVisitorTest, StopsAtLimit) {
  std::vector<VertexID> out;
  FlatTupleVisitor visitor({0}, /*tuple_limit=*/3, &out);
  const VertexID mapping[] = {7};
  EXPECT_TRUE(visitor.OnMatch(mapping));
  EXPECT_TRUE(visitor.OnMatch(mapping));
  EXPECT_FALSE(visitor.OnMatch(mapping));
  EXPECT_TRUE(visitor.hit_limit());
  EXPECT_EQ(out.size(), 3u);
}

TEST(VisitorIntegrationTest, EnumerateAndCountAgree) {
  const Graph g = RelabelByDegree(BarabasiAlbertClustered(500, 3, 0.4, 7));
  Pattern p2;
  ASSERT_TRUE(FindPattern("P2", &p2).ok());
  const ExecutionPlan plan = BuildPlan(
      p2, g, ComputeGraphStats(g), PlanOptions::Light());
  Enumerator counter(g, plan);
  const uint64_t count = counter.Count();

  Enumerator streamer(g, plan);
  CollectingVisitor visitor;
  EXPECT_EQ(streamer.Enumerate(&visitor), count);
  EXPECT_EQ(visitor.matches().size(), count);

  // Every streamed match is a distinct, valid, constraint-satisfying
  // embedding.
  std::set<std::vector<VertexID>> unique(visitor.matches().begin(),
                                         visitor.matches().end());
  EXPECT_EQ(unique.size(), count);
  for (const auto& match : visitor.matches()) {
    for (const auto& [a, b] : p2.Edges()) {
      EXPECT_TRUE(g.HasEdge(match[static_cast<size_t>(a)],
                            match[static_cast<size_t>(b)]));
    }
    for (const auto& [a, b] : plan.partial_order) {
      EXPECT_LT(match[static_cast<size_t>(a)], match[static_cast<size_t>(b)]);
    }
  }
}

}  // namespace
}  // namespace light
