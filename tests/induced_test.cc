// Induced (vertex-induced) matching: pattern non-edges map to data
// non-edges — the network-motif counting semantics. Default remains the
// paper's non-induced Definition II.1.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/enumerator.h"
#include "gen/generators.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"
#include "parallel/parallel_enumerator.h"
#include "pattern/catalog.h"
#include "plan/plan.h"
#include "reference.h"
#include "storage/graph_store.h"

namespace light {
namespace {

using ::light::testing::BruteForceCountMatches;

TEST(InducedTest, SquareInK4) {
  // K4 contains 3 non-induced squares but 0 induced ones (every 4-cycle in
  // K4 has chords).
  const Graph g = Complete(4);
  Pattern square;
  ASSERT_TRUE(FindPattern("square", &square).ok());
  const GraphStats stats = ComputeGraphStats(g);
  PlanOptions non_induced = PlanOptions::Light();
  PlanOptions induced = PlanOptions::Light();
  induced.induced = true;
  const ExecutionPlan p1 = BuildPlan(square, g, stats, non_induced);
  const ExecutionPlan p2 = BuildPlan(square, g, stats, induced);
  Enumerator e1(g, p1);
  Enumerator e2(g, p2);
  EXPECT_EQ(e1.Count(), 3u);
  EXPECT_EQ(e2.Count(), 0u);
}

TEST(InducedTest, CliquesUnaffected) {
  // Cliques have no non-edges, so both semantics agree.
  const Graph g = RelabelByDegree(BarabasiAlbertClustered(500, 4, 0.5, 3));
  const GraphStats stats = ComputeGraphStats(g);
  Pattern k4;
  ASSERT_TRUE(FindPattern("k4", &k4).ok());
  PlanOptions induced = PlanOptions::Light();
  induced.induced = true;
  const ExecutionPlan plain_plan = BuildPlan(k4, g, stats, PlanOptions::Light());
  const ExecutionPlan induced_plan = BuildPlan(k4, g, stats, induced);
  Enumerator plain(g, plain_plan);
  Enumerator ind(g, induced_plan);
  EXPECT_EQ(plain.Count(), ind.Count());
}

class InducedAgreementTest : public ::testing::TestWithParam<std::string> {};

TEST_P(InducedAgreementTest, MatchesBruteForceAndBoundsNonInduced) {
  Pattern pattern;
  ASSERT_TRUE(FindPattern(GetParam(), &pattern).ok());
  const Graph g = RelabelByDegree(ErdosRenyi(40, 200, /*seed=*/17));
  const GraphStats stats = ComputeGraphStats(g);
  const PartialOrder constraints = ComputeSymmetryBreaking(pattern);
  const uint64_t expected =
      BruteForceCountMatches(pattern, g, constraints, /*induced=*/true);

  for (PlanOptions options : {PlanOptions::Se(), PlanOptions::Light()}) {
    options.induced = true;
    const ExecutionPlan plan = BuildPlan(pattern, g, stats, options);
    Enumerator enumerator(g, plan);
    EXPECT_EQ(enumerator.Count(), expected) << GetParam();
  }

  PlanOptions plain = PlanOptions::Light();
  const ExecutionPlan plain_plan = BuildPlan(pattern, g, stats, plain);
  Enumerator plain_engine(g, plain_plan);
  EXPECT_LE(expected, plain_engine.Count()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Patterns, InducedAgreementTest,
                         ::testing::Values("P1", "P2", "P4", "P5", "P6",
                                           "path3", "star3", "c5"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

TEST(InducedTest, ParallelAndMmapStoreAgree) {
  const Graph g = RelabelByDegree(BarabasiAlbertClustered(600, 3, 0.4, 19));
  const GraphStats stats = ComputeGraphStats(g);
  Pattern p1;
  ASSERT_TRUE(FindPattern("P1", &p1).ok());
  PlanOptions options = PlanOptions::Light();
  options.induced = true;
  const ExecutionPlan plan = BuildPlan(p1, g, stats, options);
  Enumerator serial(g, plan);
  const uint64_t expected = serial.Count();

  ParallelOptions popts;
  popts.num_threads = 3;
  EXPECT_EQ(ParallelCount(g, plan, popts).num_matches, expected);

  const std::string path = ::testing::TempDir() + "/induced.lcsr2";
  ASSERT_TRUE(SaveStoreFile(g, path).ok());
  GraphStore::OpenOptions store_opts;
  store_opts.mode = GraphStore::Mode::kMmap;
  std::shared_ptr<const GraphStore> store;
  ASSERT_TRUE(GraphStore::Open(path, store_opts, &store).ok());
  Enumerator mmap_engine(store->view(), plan);
  EXPECT_EQ(mmap_engine.Count(), expected);
  EXPECT_EQ(ParallelCount(store->view(), plan, popts).num_matches, expected);
  std::remove(path.c_str());
}

TEST(InducedTest, SymmetryBreakingInvariantHoldsUnderInducedSemantics) {
  const Graph g = RelabelByDegree(ErdosRenyi(36, 160, /*seed=*/23));
  const GraphStats stats = ComputeGraphStats(g);
  for (const char* name : {"P1", "P2", "square", "c5"}) {
    Pattern pattern;
    ASSERT_TRUE(FindPattern(name, &pattern).ok());
    PlanOptions with_sb = PlanOptions::Light();
    with_sb.induced = true;
    PlanOptions no_sb = with_sb;
    no_sb.symmetry_breaking = false;
    const ExecutionPlan sb_plan = BuildPlan(pattern, g, stats, with_sb);
    const ExecutionPlan all_plan = BuildPlan(pattern, g, stats, no_sb);
    Enumerator sb(g, sb_plan);
    Enumerator all(g, all_plan);
    EXPECT_EQ(all.Count(), sb.Count() * AutomorphismCount(pattern)) << name;
  }
}

}  // namespace
}  // namespace light
