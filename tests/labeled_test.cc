// Labeled subgraph matching extension: pattern vertices with non-zero
// labels only bind to data vertices carrying the same label (label 0 is a
// wildcard). Unlabeled behaviour must be bit-for-bit unchanged.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/enumerator.h"
#include "gen/generators.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"
#include "parallel/parallel_enumerator.h"
#include "pattern/automorphism.h"
#include "pattern/catalog.h"
#include "pattern/symmetry_breaking.h"
#include "plan/plan.h"

namespace light {
namespace {

// Brute-force labeled oracle.
uint64_t BruteForceLabeled(const Pattern& pattern, const Graph& graph,
                           const std::vector<uint32_t>& labels,
                           const PartialOrder& constraints) {
  const int n = pattern.NumVertices();
  std::vector<VertexID> mapping(static_cast<size_t>(n), kInvalidVertex);
  uint64_t count = 0;
  auto recurse = [&](auto&& self, int u) -> void {
    if (u == n) {
      ++count;
      return;
    }
    for (VertexID v = 0; v < graph.NumVertices(); ++v) {
      if (pattern.Label(u) != 0 && labels[v] != pattern.Label(u)) continue;
      bool ok = true;
      for (int w = 0; w < u && ok; ++w) {
        if (mapping[static_cast<size_t>(w)] == v) ok = false;
        if (ok && pattern.HasEdge(u, w) &&
            !graph.HasEdge(v, mapping[static_cast<size_t>(w)])) {
          ok = false;
        }
      }
      for (const auto& [a, b] : constraints) {
        if (!ok) break;
        if (a == u && b < u && !(v < mapping[static_cast<size_t>(b)])) ok = false;
        if (b == u && a < u && !(mapping[static_cast<size_t>(a)] < v)) ok = false;
      }
      if (!ok) continue;
      mapping[static_cast<size_t>(u)] = v;
      self(self, u + 1);
      mapping[static_cast<size_t>(u)] = kInvalidVertex;
    }
  };
  recurse(recurse, 0);
  return count;
}

std::vector<uint32_t> RandomLabels(VertexID n, uint32_t num_labels,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> labels(n);
  for (VertexID v = 0; v < n; ++v) {
    labels[v] = 1 + static_cast<uint32_t>(rng.NextBounded(num_labels));
  }
  return labels;
}

TEST(LabeledPatternTest, LabelAccessors) {
  Pattern p(3);
  EXPECT_FALSE(p.HasLabels());
  EXPECT_EQ(p.Label(1), 0u);
  p.SetLabel(1, 7);
  EXPECT_TRUE(p.HasLabels());
  EXPECT_EQ(p.Label(1), 7u);
  EXPECT_EQ(p.Label(0), 0u);
}

TEST(LabeledPatternTest, LabelsRestrictAutomorphisms) {
  Pattern triangle;
  ASSERT_TRUE(FindPattern("triangle", &triangle).ok());
  EXPECT_EQ(AutomorphismCount(triangle), 6u);
  Pattern labeled = triangle;
  labeled.SetLabel(0, 1);
  labeled.SetLabel(1, 2);
  labeled.SetLabel(2, 2);
  // Only the swap of the two label-2 vertices survives.
  EXPECT_EQ(AutomorphismCount(labeled), 2u);
  labeled.SetLabel(2, 3);
  EXPECT_EQ(AutomorphismCount(labeled), 1u);
}

TEST(LabeledEngineTest, WildcardLabelsMatchUnlabeledCounts) {
  const Graph g = RelabelByDegree(ErdosRenyi(40, 180, /*seed=*/7));
  const std::vector<uint32_t> labels = RandomLabels(g.NumVertices(), 3, 1);
  Pattern p2;
  ASSERT_TRUE(FindPattern("P2", &p2).ok());
  const ExecutionPlan plan = BuildPlan(
      p2, g, ComputeGraphStats(g), PlanOptions::Light());
  Enumerator unlabeled(g, plan);
  Enumerator wildcard(g, plan, &labels);  // all pattern labels are 0
  EXPECT_EQ(unlabeled.Count(), wildcard.Count());
}

class LabeledAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(LabeledAgreementTest, AllVariantsMatchLabeledBruteForce) {
  const int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 101 + 7);
  const Graph g = RelabelByDegree(
      BarabasiAlbertClustered(44, 3, 0.4, 500 + static_cast<uint64_t>(seed)));
  const std::vector<uint32_t> labels =
      RandomLabels(g.NumVertices(), 2 + seed % 3,
                   static_cast<uint64_t>(seed));

  Pattern base;
  const char* names[] = {"P1", "P2", "P4", "P6", "triangle"};
  ASSERT_TRUE(FindPattern(names[seed % 5], &base).ok());
  Pattern pattern = base;
  // Label a random subset of pattern vertices (0 = wildcard stays).
  for (int u = 0; u < pattern.NumVertices(); ++u) {
    if (rng.NextDouble() < 0.6) {
      pattern.SetLabel(
          u, 1 + static_cast<uint32_t>(rng.NextBounded(2 + seed % 3)));
    }
  }

  const PartialOrder constraints = ComputeSymmetryBreaking(pattern);
  const uint64_t expected = BruteForceLabeled(pattern, g, labels, constraints);

  const GraphStats stats = ComputeGraphStats(g);
  for (PlanOptions options : {PlanOptions::Se(), PlanOptions::Lm(),
                              PlanOptions::Msc(), PlanOptions::Light()}) {
    const ExecutionPlan plan = BuildPlan(pattern, g, stats, options);
    Enumerator enumerator(g, plan, &labels);
    EXPECT_EQ(enumerator.Count(), expected)
        << "lazy=" << options.lazy_materialization
        << " cover=" << options.minimum_set_cover << "\n"
        << plan.ToString();
  }

  // Parallel agrees too.
  const ExecutionPlan plan = BuildPlan(pattern, g, stats, PlanOptions::Light());
  ParallelOptions popts;
  popts.num_threads = 3;
  EXPECT_EQ(ParallelCount(g, plan, popts, &labels).num_matches, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LabeledAgreementTest, ::testing::Range(0, 10));

TEST(LabeledEngineTest, ImpossibleLabelYieldsZero) {
  const Graph g = RelabelByDegree(ErdosRenyi(30, 120, /*seed=*/3));
  const std::vector<uint32_t> labels(g.NumVertices(), 1);
  Pattern triangle;
  ASSERT_TRUE(FindPattern("triangle", &triangle).ok());
  triangle.SetLabel(0, 99);  // no data vertex carries label 99
  const ExecutionPlan plan = BuildPlan(
      triangle, g, ComputeGraphStats(g), PlanOptions::Light());
  Enumerator enumerator(g, plan, &labels);
  EXPECT_EQ(enumerator.Count(), 0u);
}

}  // namespace
}  // namespace light
