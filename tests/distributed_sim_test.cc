#include "parallel/distributed_sim.h"

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"
#include "pattern/catalog.h"
#include "plan/plan.h"

namespace light {
namespace {

TEST(DistributedSimTest, PartitionsCoverVertexSetExactlyOnce) {
  const Graph g = RelabelByDegree(BarabasiAlbert(1000, 4, /*seed=*/3));
  for (int machines : {1, 3, 7, 12}) {
    const auto partition = EstimateBalancedPartition(g, machines);
    ASSERT_FALSE(partition.empty());
    ASSERT_LE(partition.size(), static_cast<size_t>(machines));
    EXPECT_EQ(partition.front().begin, 0u);
    EXPECT_EQ(partition.back().end, g.NumVertices());
    for (size_t i = 1; i < partition.size(); ++i) {
      EXPECT_EQ(partition[i].begin, partition[i - 1].end);
    }
  }
}

TEST(DistributedSimTest, BothSchemesCountAllMatches) {
  const Graph g =
      RelabelByDegree(BarabasiAlbertClustered(800, 4, 0.4, /*seed=*/5));
  const GraphStats stats = ComputeGraphStats(g);
  Pattern p2;
  ASSERT_TRUE(FindPattern("P2", &p2).ok());
  const ExecutionPlan plan = BuildPlan(p2, g, stats, PlanOptions::Light());
  Enumerator serial(g, plan);
  const uint64_t expected = serial.Count();
  for (int machines : {1, 4, 12}) {
    EXPECT_EQ(SimulateNaiveDistributed(g, plan, machines).num_matches,
              expected)
        << machines;
    EXPECT_EQ(SimulateBalancedDistributed(g, plan, machines).num_matches,
              expected)
        << machines;
  }
}

TEST(DistributedSimTest, ImbalanceMetricsSane) {
  const Graph g = RelabelByDegree(BarabasiAlbert(5000, 6, /*seed=*/7));
  Pattern p2;
  ASSERT_TRUE(FindPattern("P2", &p2).ok());
  const ExecutionPlan plan =
      BuildPlan(p2, g, ComputeGraphStats(g), PlanOptions::Light());
  const DistributedSimResult r = SimulateNaiveDistributed(g, plan, 8);
  EXPECT_EQ(r.machine_seconds.size(), 8u);
  EXPECT_GE(r.Imbalance(), 1.0);
  EXPECT_GE(r.MaxSeconds(), r.MeanSeconds());
}

TEST(DistributedSimTest, BalancedPartitionGivesHubsSmallerRanges) {
  // Degree-relabeled graphs place hubs at high IDs; the balanced partition
  // must therefore make the last range (hub territory) the narrowest.
  const Graph g = RelabelByDegree(BarabasiAlbert(5000, 6, /*seed=*/9));
  const auto partition = EstimateBalancedPartition(g, 8);
  ASSERT_GE(partition.size(), 2u);
  EXPECT_LT(partition.back().end - partition.back().begin,
            partition.front().end - partition.front().begin);
}

}  // namespace
}  // namespace light
