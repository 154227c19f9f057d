// Cross-cutting property tests: randomized patterns and graphs, all engine
// variants, the parallel runtime, and the join baselines must agree with a
// brute-force oracle and with each other. These are the tests that would
// catch subtle pruning/constraint bugs no hand-written case anticipates.

#include <gtest/gtest.h>

#include <tuple>

#include "baselines/cfl_like.h"
#include "baselines/eh_like.h"
#include "common/rng.h"
#include "engine/enumerator.h"
#include "gen/generators.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"
#include "join/bsp_engine.h"
#include "parallel/parallel_enumerator.h"
#include "pattern/symmetry_breaking.h"
#include "plan/execution_order.h"
#include "plan/order_optimizer.h"
#include "plan/plan.h"
#include "reference.h"

namespace light {
namespace {

using ::light::testing::BruteForceCountMatches;

// Random connected pattern with n vertices: a random spanning tree plus
// `extra` random edges.
Pattern RandomConnectedPattern(int n, int extra, Rng* rng) {
  Pattern p(n);
  for (int v = 1; v < n; ++v) {
    p.AddEdge(v, static_cast<int>(rng->NextBounded(static_cast<uint64_t>(v))));
  }
  for (int e = 0; e < extra; ++e) {
    const int a = static_cast<int>(rng->NextBounded(static_cast<uint64_t>(n)));
    const int b = static_cast<int>(rng->NextBounded(static_cast<uint64_t>(n)));
    if (a != b) p.AddEdge(a, b);
  }
  return p;
}

Graph RandomGraph(int which, uint64_t seed) {
  switch (which % 3) {
    case 0:
      return RelabelByDegree(ErdosRenyi(36, 160, seed));
    case 1:
      return RelabelByDegree(BarabasiAlbertClustered(40, 3, 0.4, seed));
    default:
      return RelabelByDegree(WattsStrogatz(36, 6, 0.3, seed));
  }
}

class RandomAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RandomAgreementTest, AllEnginesMatchBruteForce) {
  const auto& [pattern_seed, graph_kind] = GetParam();
  Rng rng(static_cast<uint64_t>(pattern_seed) * 7919 + 13);
  const int n = 3 + static_cast<int>(rng.NextBounded(4));     // 3..6
  const int extra = static_cast<int>(rng.NextBounded(4));     // 0..3
  const Pattern pattern = RandomConnectedPattern(n, extra, &rng);
  const Graph graph =
      RandomGraph(graph_kind, 1000 + static_cast<uint64_t>(pattern_seed));
  const GraphStats stats = ComputeGraphStats(graph);

  const PartialOrder constraints = ComputeSymmetryBreaking(pattern);
  const uint64_t expected = BruteForceCountMatches(pattern, graph, constraints);

  // The four serial variants (sampling-estimator plans).
  for (PlanOptions options : {PlanOptions::Se(), PlanOptions::Lm(),
                              PlanOptions::Msc(), PlanOptions::Light()}) {
    const ExecutionPlan plan = BuildPlan(pattern, graph, stats, options);
    Enumerator enumerator(graph, plan);
    ASSERT_EQ(enumerator.Count(), expected)
        << "variant lazy=" << options.lazy_materialization
        << " cover=" << options.minimum_set_cover << "\npattern "
        << pattern.ToString() << "\n"
        << plan.ToString();
  }

  // Parallel runtime.
  {
    const ExecutionPlan plan =
        BuildPlan(pattern, graph, stats, PlanOptions::Light());
    ParallelOptions popts;
    popts.num_threads = 3;
    ASSERT_EQ(ParallelCount(graph, plan, popts).num_matches, expected)
        << pattern.ToString();
  }

  // Join baselines.
  {
    const BspResult seed_like = RunSeedLike(graph, pattern, {});
    ASSERT_TRUE(seed_like.status.ok());
    ASSERT_EQ(seed_like.num_matches, expected) << pattern.ToString();
    const BspResult crystal = RunCrystalLike(graph, pattern, {});
    ASSERT_TRUE(crystal.status.ok());
    ASSERT_EQ(crystal.num_matches, expected) << pattern.ToString();
    const BspResult eh = RunEhLike(graph, pattern, {});
    ASSERT_TRUE(eh.status.ok());
    ASSERT_EQ(eh.num_matches, expected) << pattern.ToString();
  }

  // CFL-like plan.
  {
    const ExecutionPlan plan = BuildCflLikePlan(pattern, true);
    Enumerator enumerator(graph, plan);
    ASSERT_EQ(enumerator.Count(), expected) << pattern.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomAgreementTest,
    ::testing::Combine(::testing::Range(0, 12), ::testing::Range(0, 3)));

// Every connected enumeration order must give the same count, lazy or
// eager, with or without set cover — the count is order-invariant.
TEST(OrderInvarianceTest, AllOrdersAllVariantsAgree) {
  Rng rng(4242);
  const Pattern pattern = RandomConnectedPattern(5, 2, &rng);
  const Graph graph = RandomGraph(1, 77);
  const PartialOrder constraints = ComputeSymmetryBreaking(pattern);
  const uint64_t expected =
      BruteForceCountMatches(pattern, graph, constraints);
  for (const auto& pi : EnumerateConnectedOrders(pattern, {})) {
    for (PlanOptions options : {PlanOptions::Se(), PlanOptions::Light()}) {
      const ExecutionPlan plan = BuildPlanWithOrder(pattern, pi, options);
      Enumerator enumerator(graph, plan);
      ASSERT_EQ(enumerator.Count(), expected)
          << pattern.ToString() << "\n"
          << plan.ToString();
    }
  }
}

// Disconnected (EH-style) orders through the engine's universal-vertex path
// must also agree.
TEST(OrderInvarianceTest, DisconnectedOrdersAgree) {
  const Pattern p2 =
      Pattern::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  const Graph graph = RandomGraph(0, 5);
  const PartialOrder constraints = ComputeSymmetryBreaking(p2);
  const uint64_t expected = BruteForceCountMatches(p2, graph, constraints);
  const std::vector<std::vector<int>> disconnected_orders = {
      {1, 3, 0, 2},  // the paper's EH order for Fig. 1a
      {0, 3, 1, 2},
      {2, 1, 3, 0},
  };
  for (const auto& pi : disconnected_orders) {
    PlanOptions options = PlanOptions::Se();  // eager required
    const ExecutionPlan plan = BuildPlanWithOrder(p2, pi, options);
    Enumerator enumerator(graph, plan);
    ASSERT_EQ(enumerator.Count(), expected) << plan.ToString();
  }
}

// Proposition IV.2 upper bound: in LIGHT, |Phi_u| is at most the number of
// matches of the anchor-induced subpattern.
TEST(PropositionIV2Test, CompCountsBoundedByAnchorMatches) {
  const Pattern p2 =
      Pattern::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  const Graph graph = RandomGraph(1, 11);
  PlanOptions options = PlanOptions::Light();
  options.symmetry_breaking = false;
  const std::vector<int> pi = {0, 2, 1, 3};
  const ExecutionPlan plan = BuildPlanWithOrder(p2, pi, options);
  Enumerator enumerator(graph, plan);
  enumerator.Count();

  const auto anchors = AnchorVertices(p2, pi, plan.sigma);
  for (size_t i = 1; i < pi.size(); ++i) {
    const int u = pi[i];
    // Build the anchor-induced pattern with remapped ids.
    std::vector<int> verts;
    for (int w = 0; w < p2.NumVertices(); ++w) {
      if ((anchors[static_cast<size_t>(u)] >> w) & 1u) verts.push_back(w);
    }
    Pattern anchor_pattern(static_cast<int>(verts.size()));
    for (size_t a = 0; a < verts.size(); ++a) {
      for (size_t b = a + 1; b < verts.size(); ++b) {
        if (p2.HasEdge(verts[a], verts[b])) {
          anchor_pattern.AddEdge(static_cast<int>(a), static_cast<int>(b));
        }
      }
    }
    const uint64_t anchor_matches =
        BruteForceCountMatches(anchor_pattern, graph);
    EXPECT_LE(enumerator.stats().comp_counts[static_cast<size_t>(u)],
              anchor_matches)
        << "u" << u;
  }
}

// Under the same enumeration order, LM's candidate computations of the
// *final* pattern vertex never exceed SE's: its anchors are a subset of the
// full prefix, and the free-vertex nonempty checks only prune further. (The
// paper notes per-vertex counts are not universally ordered — Equation 5's
// Gamma can dip below 1 — but the last vertex of the Fig. 1a pattern under
// the paper's order is the canonical win; verify it across random graphs.)
TEST(LazinessTest, Fig1aLastVertexComputationsShrink) {
  const Pattern p2 =
      Pattern::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  const std::vector<int> pi = {0, 2, 1, 3};
  for (int trial = 0; trial < 6; ++trial) {
    const Graph graph = RandomGraph(trial, 900 + trial);
    PlanOptions se_options = PlanOptions::Se();
    se_options.symmetry_breaking = false;
    PlanOptions lm_options = PlanOptions::Lm();
    lm_options.symmetry_breaking = false;
    const ExecutionPlan se_plan = BuildPlanWithOrder(p2, pi, se_options);
    const ExecutionPlan lm_plan = BuildPlanWithOrder(p2, pi, lm_options);
    Enumerator se(graph, se_plan);
    Enumerator lm(graph, lm_plan);
    ASSERT_EQ(se.Count(), lm.Count());
    // u3 is computed per (u0, u2) pair in LM but per (u0, u2, u1) match in
    // SE.
    EXPECT_LE(lm.stats().comp_counts[3], se.stats().comp_counts[3]);
  }
}

}  // namespace
}  // namespace light
