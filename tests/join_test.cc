#include "join/bsp_engine.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "engine/enumerator.h"
#include "gen/generators.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"
#include "join/decompose.h"
#include "join/hash_join.h"
#include "join/relation.h"
#include "pattern/catalog.h"
#include "plan/plan.h"

namespace light {
namespace {

TEST(RelationTest, BasicOps) {
  Relation r({2, 0, 5});
  EXPECT_EQ(r.Arity(), 3);
  EXPECT_EQ(r.NumTuples(), 0u);
  const VertexID t1[] = {10, 20, 30};
  const VertexID t2[] = {11, 21, 31};
  r.AppendTuple(t1);
  r.AppendTuple(t2);
  EXPECT_EQ(r.NumTuples(), 2u);
  EXPECT_EQ(r.Tuple(1)[2], 31u);
  EXPECT_EQ(r.ColumnOf(0), 1);
  EXPECT_EQ(r.ColumnOf(7), -1);
  EXPECT_EQ(r.MemoryBytes(), 6 * sizeof(VertexID));
}

TEST(RelationTest, TupleValidChecksInjectivityAndConstraints) {
  const std::vector<int> schema = {0, 1, 2};
  const VertexID dup[] = {5, 5, 7};
  EXPECT_FALSE(TupleValid(schema, dup, {}));
  const VertexID ok[] = {3, 5, 7};
  EXPECT_TRUE(TupleValid(schema, ok, {}));
  // Constraint phi(u1) < phi(u0) violated by (3,5,..).
  EXPECT_FALSE(TupleValid(schema, ok, {{1, 0}}));
  EXPECT_TRUE(TupleValid(schema, ok, {{0, 1}}));
  // Constraints on absent vertices are ignored.
  EXPECT_TRUE(TupleValid(schema, ok, {{0, 9}}));
}

TEST(HashJoinTest, SimpleEquiJoin) {
  Relation left({0, 1});
  Relation right({1, 2});
  const VertexID l1[] = {1, 10};
  const VertexID l2[] = {2, 10};
  const VertexID l3[] = {3, 11};
  left.AppendTuple(l1);
  left.AppendTuple(l2);
  left.AppendTuple(l3);
  const VertexID r1[] = {10, 7};
  const VertexID r2[] = {11, 8};
  const VertexID r3[] = {12, 9};
  right.AppendTuple(r1);
  right.AppendTuple(r2);
  right.AppendTuple(r3);

  Relation out;
  JoinMetrics metrics;
  ASSERT_TRUE(HashJoin(left, right, {}, {}, &out, &metrics).ok());
  EXPECT_EQ(out.NumTuples(), 3u);
  EXPECT_EQ(out.schema(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(metrics.probe_tuples, 3u);
}

TEST(HashJoinTest, InjectivityFiltersJoinedTuples) {
  Relation left({0, 1});
  Relation right({1, 2});
  const VertexID l1[] = {7, 10};
  left.AppendTuple(l1);
  const VertexID r1[] = {10, 7};  // would map u2 to 7 = u0's vertex
  const VertexID r2[] = {10, 8};
  right.AppendTuple(r1);
  right.AppendTuple(r2);
  Relation out;
  ASSERT_TRUE(HashJoin(left, right, {}, {}, &out, nullptr).ok());
  EXPECT_EQ(out.NumTuples(), 1u);
  EXPECT_EQ(out.Tuple(0)[2], 8u);
}

TEST(HashJoinTest, BudgetOverflowReturnsResourceExhausted) {
  Relation left({0, 1});
  Relation right({1, 2});
  for (VertexID i = 0; i < 100; ++i) {
    const VertexID lt[] = {i + 1000, 5};
    left.AppendTuple(lt);
    const VertexID rt[] = {5, i + 2000};
    right.AppendTuple(rt);
  }
  Relation out;
  JoinBudget budget;
  budget.max_tuples = 50;  // 100x100 product overflows immediately
  const Status status = HashJoin(left, right, {}, budget, &out, nullptr);
  EXPECT_EQ(status.code(), Status::Code::kResourceExhausted);
}

TEST(HashJoinTest, NoSharedVerticesRejected) {
  Relation left({0, 1});
  Relation right({2, 3});
  Relation out;
  EXPECT_EQ(HashJoin(left, right, {}, {}, &out, nullptr).code(),
            Status::Code::kInvalidArgument);
}

TEST(HashJoinTest, CountMatchesMaterialized) {
  Relation left({0, 1});
  Relation right({1, 2});
  for (VertexID i = 0; i < 20; ++i) {
    const VertexID lt[] = {i, i % 5};
    left.AppendTuple(lt);
    const VertexID rt[] = {i % 5, i + 100};
    right.AppendTuple(rt);
  }
  Relation out;
  ASSERT_TRUE(HashJoin(left, right, {}, {}, &out, nullptr).ok());
  uint64_t count = 0;
  ASSERT_TRUE(HashJoinCount(left, right, {}, &count, nullptr).ok());
  EXPECT_EQ(count, out.NumTuples());
}

TEST(DecomposeTest, CliqueStarCoversAllEdges) {
  for (const char* name : {"P1", "P2", "P3", "P4", "P5", "P6", "P7"}) {
    Pattern p;
    ASSERT_TRUE(FindPattern(name, &p).ok());
    const auto units = DecomposeCliqueStar(p);
    // Union of unit edges must cover E(P).
    Pattern covered(p.NumVertices());
    for (const JoinUnit& unit : units) {
      for (const auto& [a, b] : unit.pattern.Edges()) {
        const int ga = unit.vertices[static_cast<size_t>(a)];
        const int gb = unit.vertices[static_cast<size_t>(b)];
        EXPECT_TRUE(p.HasEdge(ga, gb)) << name;  // no invented edges
        covered.AddEdge(ga, gb);
      }
    }
    EXPECT_EQ(covered.NumEdges(), p.NumEdges()) << name;
  }
}

TEST(DecomposeTest, CliquePatternsAreSingleUnits) {
  for (const char* name : {"P3", "P7", "triangle"}) {
    Pattern p;
    ASSERT_TRUE(FindPattern(name, &p).ok());
    const auto units = DecomposeCliqueStar(p);
    ASSERT_EQ(units.size(), 1u) << name;
    EXPECT_EQ(units[0].kind, "clique") << name;
  }
}

TEST(DecomposeTest, MinimumConnectedVertexCover) {
  Pattern p2;
  ASSERT_TRUE(FindPattern("P2", &p2).ok());
  // Diamond: {u0, u2} covers all 5 edges and is connected (edge 0-2).
  const auto cover = MinimumConnectedVertexCover(p2);
  EXPECT_EQ(cover, (std::vector<int>{0, 2}));

  Pattern star;
  ASSERT_TRUE(FindPattern("star4", &star).ok());
  EXPECT_EQ(MinimumConnectedVertexCover(star), (std::vector<int>{0}));
}

TEST(DecomposeTest, CoreCrystalProperties) {
  for (const char* name : {"P1", "P2", "P4", "P5", "P6"}) {
    Pattern p;
    ASSERT_TRUE(FindPattern(name, &p).ok());
    const auto d = DecomposeCoreCrystal(p);
    uint32_t core_mask = 0;
    for (int v : d.core) core_mask |= 1u << v;
    // Cover: every edge touches the core.
    for (const auto& [a, b] : p.Edges()) {
      EXPECT_TRUE(((core_mask >> a) & 1u) || ((core_mask >> b) & 1u)) << name;
    }
    // Buds pairwise non-adjacent, anchors = full neighborhoods in core.
    for (const auto& c1 : d.crystals) {
      for (const auto& c2 : d.crystals) {
        if (c1.bud != c2.bud) {
          EXPECT_FALSE(p.HasEdge(c1.bud, c2.bud)) << name;
        }
      }
      for (int a : c1.anchors) {
        EXPECT_TRUE((core_mask >> a) & 1u) << name;
        EXPECT_TRUE(p.HasEdge(c1.bud, a)) << name;
      }
      EXPECT_EQ(static_cast<int>(c1.anchors.size()), p.Degree(c1.bud))
          << name;
    }
    EXPECT_EQ(d.core.size() + d.crystals.size(),
              static_cast<size_t>(p.NumVertices()))
        << name;
  }
}

TEST(DecomposeTest, GhdBagsCoverEdgesAndRespectWidth) {
  for (const char* name : {"P1", "P2", "P4", "P5", "P6"}) {
    Pattern p;
    ASSERT_TRUE(FindPattern(name, &p).ok());
    const auto bags = DecomposeGhdBags(p);
    Pattern covered(p.NumVertices());
    for (const JoinUnit& bag : bags) {
      for (const auto& [a, b] : bag.pattern.Edges()) {
        covered.AddEdge(bag.vertices[static_cast<size_t>(a)],
                        bag.vertices[static_cast<size_t>(b)]);
      }
    }
    EXPECT_EQ(covered.NumEdges(), p.NumEdges()) << name;
  }
  // The square's treewidth is 2: every bag has <= 3 vertices.
  Pattern p1;
  ASSERT_TRUE(FindPattern("P1", &p1).ok());
  for (const JoinUnit& bag : DecomposeGhdBags(p1)) {
    EXPECT_LE(bag.vertices.size(), 3u);
  }
}

class BspAgreementTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BspAgreementTest, SeedAndCrystalMatchLight) {
  const std::string name = GetParam();
  Pattern p;
  ASSERT_TRUE(FindPattern(name, &p).ok());
  const Graph g = RelabelByDegree(BarabasiAlbert(300, 4, /*seed=*/41));
  const ExecutionPlan plan =
      BuildPlan(p, g, ComputeGraphStats(g), PlanOptions::Light());
  Enumerator light(g, plan);
  const uint64_t expected = light.Count();

  BspOptions options;
  const BspResult seed = RunSeedLike(g, p, options);
  ASSERT_TRUE(seed.status.ok()) << seed.status.ToString();
  EXPECT_EQ(seed.num_matches, expected) << "SEED-like on " << name;

  const BspResult crystal = RunCrystalLike(g, p, options);
  ASSERT_TRUE(crystal.status.ok()) << crystal.status.ToString();
  EXPECT_EQ(crystal.num_matches, expected) << "CRYSTAL-like on " << name;
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, BspAgreementTest,
                         ::testing::Values("P1", "P2", "P3", "P4", "P5", "P6",
                                           "P7", "square", "c5"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

TEST(BspEngineTest, TinyBudgetTriggersOos) {
  Pattern p1;
  ASSERT_TRUE(FindPattern("P1", &p1).ok());
  const Graph g = RelabelByDegree(BarabasiAlbert(2000, 6, /*seed=*/43));
  BspOptions options;
  options.memory_budget_bytes = 1024;  // absurdly small cluster
  const BspResult seed = RunSeedLike(g, p1, options);
  EXPECT_EQ(seed.status.code(), Status::Code::kResourceExhausted);
  EXPECT_EQ(seed.Outcome(), "OOS");
}

TEST(BspEngineTest, TinyTimeLimitTriggersOot) {
  Pattern p5;
  ASSERT_TRUE(FindPattern("P5", &p5).ok());
  const Graph g = RelabelByDegree(BarabasiAlbert(20000, 8, /*seed=*/47));
  BspOptions options;
  options.time_limit_seconds = 1e-4;
  const BspResult seed = RunSeedLike(g, p5, options);
  EXPECT_EQ(seed.status.code(), Status::Code::kDeadlineExceeded);
  EXPECT_EQ(seed.Outcome(), "OOT");
}

TEST(BspEngineTest, ShuffleTimeScalesWithBytes) {
  Pattern p1;
  ASSERT_TRUE(FindPattern("P1", &p1).ok());
  const Graph g = RelabelByDegree(BarabasiAlbert(500, 4, /*seed=*/53));
  BspOptions fast;
  fast.shuffle_bandwidth_bytes_per_sec = 1e9;
  BspOptions slow = fast;
  slow.shuffle_bandwidth_bytes_per_sec = 1e6;
  const BspResult a = RunSeedLike(g, p1, fast);
  const BspResult b = RunSeedLike(g, p1, slow);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.bytes_shuffled, b.bytes_shuffled);
  EXPECT_GT(b.simulated_io_seconds, a.simulated_io_seconds);
}

}  // namespace
}  // namespace light
