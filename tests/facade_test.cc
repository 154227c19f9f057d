#include "light.h"

#include <gtest/gtest.h>

#include <string>

#include "gen/generators.h"
#include "pattern/parse.h"
#include "pattern/symmetry_breaking.h"

namespace light {
namespace {

Graph TestGraph() {
  return RelabelByDegree(BarabasiAlbertClustered(800, 4, 0.4, /*seed=*/77));
}

TEST(FacadeTest, CountMatchesEngine) {
  const Graph g = TestGraph();
  Pattern p2;
  ASSERT_TRUE(FindPattern("P2", &p2).ok());

  RunOptions serial;
  serial.threads = 1;
  const RunResult a = light::Run(g, p2, serial);
  ASSERT_TRUE(a.ok());
  EXPECT_GT(a.num_matches, 0u);
  EXPECT_FALSE(a.timed_out);

  RunOptions parallel;
  parallel.threads = 4;
  EXPECT_EQ(light::Run(g, p2, parallel).num_matches, a.num_matches);

  // Automorphism invariant through the facade flags.
  RunOptions all;
  all.threads = 1;
  all.unique_subgraphs = false;
  EXPECT_EQ(light::Run(g, p2, all).num_matches,
            a.num_matches * AutomorphismCount(p2));
}

TEST(FacadeTest, ReportSinkFilledOnCount) {
  const Graph g = TestGraph();
  Pattern p2;
  ASSERT_TRUE(FindPattern("P2", &p2).ok());

  obs::RunReport serial_report;
  RunOptions serial;
  serial.threads = 1;
  serial.report = &serial_report;
  const RunResult a = light::Run(g, p2, serial);
  EXPECT_EQ(serial_report.num_matches, a.num_matches);
  EXPECT_EQ(serial_report.graph_vertices, g.NumVertices());
  EXPECT_EQ(serial_report.tool, "light::Run");
  EXPECT_FALSE(serial_report.plan_order.empty());
  EXPECT_FALSE(serial_report.plan_sigma.empty());
  EXPECT_EQ(serial_report.summary.threads_used, 1);

  obs::RunReport parallel_report;
  RunOptions parallel;
  parallel.threads = 4;
  parallel.report = &parallel_report;
  light::Run(g, p2, parallel);
  EXPECT_EQ(parallel_report.num_matches, a.num_matches);
  EXPECT_EQ(parallel_report.summary.threads_configured, 4);
  EXPECT_EQ(parallel_report.workers.size(), 4u);
  uint64_t roots = 0;
  for (const obs::WorkerStats& w : parallel_report.workers) {
    roots += w.roots_processed;
  }
  EXPECT_EQ(roots, g.NumVertices());
}

TEST(FacadeTest, InducedFlagTightensCounts) {
  const Graph g = TestGraph();
  Pattern square;
  ASSERT_TRUE(FindPattern("square", &square).ok());
  RunOptions plain;
  plain.threads = 1;
  RunOptions induced = plain;
  induced.plan_options.induced = true;
  EXPECT_LE(light::Run(g, square, induced).num_matches,
            light::Run(g, square, plain).num_matches);
}

TEST(FacadeTest, TimeLimitReported) {
  const Graph g = RelabelByDegree(BarabasiAlbert(20000, 8, /*seed=*/5));
  Pattern p5;
  ASSERT_TRUE(FindPattern("P5", &p5).ok());
  RunOptions options;
  options.threads = 1;
  options.time_limit_seconds = 1e-3;
  EXPECT_TRUE(light::Run(g, p5, options).timed_out);
}

TEST(FacadeTest, EnumerateStreamsToVisitor) {
  const Graph g = TestGraph();
  Pattern triangle;
  ASSERT_TRUE(FindPattern("triangle", &triangle).ok());
  CollectingVisitor visitor;
  RunOptions options;
  options.threads = 1;
  options.visitor = &visitor;
  const RunResult r = light::Run(g, triangle, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.num_matches, visitor.matches().size());

  // A visitor returning false stops the run after exactly that match.
  CollectingVisitor limited(/*limit=*/7);
  options.visitor = &limited;
  ASSERT_GT(r.num_matches, 7u);
  light::Run(g, triangle, options);
  EXPECT_EQ(limited.matches().size(), 7u);
}

TEST(FacadeTest, EnumerateRejectsParallelVisitor) {
  // Parity contract: a streaming visitor with threads > 1 is an explicit
  // error, not a silent serial fallback.
  const Graph g = TestGraph();
  Pattern triangle;
  ASSERT_TRUE(FindPattern("triangle", &triangle).ok());
  CollectingVisitor visitor;
  RunOptions options;
  options.threads = 4;
  options.visitor = &visitor;
  const RunResult r = light::Run(g, triangle, options);
  EXPECT_FALSE(r.error.empty());
  EXPECT_NE(r.error.find("unsupported"), std::string::npos);
  EXPECT_EQ(r.num_matches, 0u);
  EXPECT_TRUE(visitor.matches().empty());
}

TEST(FacadeTest, EnumerateHonorsTimeLimitAndReport) {
  const Graph g = RelabelByDegree(BarabasiAlbert(20000, 8, /*seed=*/5));
  Pattern p5;
  ASSERT_TRUE(FindPattern("P5", &p5).ok());
  CollectingVisitor visitor;
  obs::RunReport report;
  RunOptions options;
  options.threads = 1;
  options.time_limit_seconds = 1e-3;
  options.visitor = &visitor;
  options.report = &report;
  const RunResult r = light::Run(g, p5, options);
  EXPECT_TRUE(r.error.empty());
  EXPECT_TRUE(r.timed_out);
  EXPECT_TRUE(report.timed_out);
  EXPECT_EQ(report.tool, "light::Run");
}

TEST(FacadeTest, UniqueSubgraphsOverridesNestedSymmetryBreaking) {
  // unique_subgraphs is authoritative: Normalized() overwrites the nested
  // field from it, so a stale plan_options.symmetry_breaking cannot leak.
  RunOptions options;
  options.unique_subgraphs = false;
  options.plan_options.symmetry_breaking = true;
  EXPECT_FALSE(options.Normalized().plan_options.symmetry_breaking);
}

// GraphPi's inclusion-exclusion now runs as the count-only leaf of the one
// plan (partition sums for a path's ends and P4's tail, binomials for
// twins): every count-only entry point must match a walk of the same query.
TEST(FacadeTest, IepCountingMatchesEnumeration) {
  const Graph g = TestGraph();
  for (const char* name :
       {"star4", "triangle", "book4", "diamond", "path3", "P4"}) {
    Pattern pattern;
    ASSERT_TRUE(FindPattern(name, &pattern).ok());
    for (const bool unique : {true, false}) {
      WalkVisitor visitor;
      RunOptions walk;
      walk.threads = 1;
      walk.unique_subgraphs = unique;
      walk.visitor = &visitor;
      const RunResult expected = light::Run(g, pattern, walk);
      ASSERT_TRUE(expected.ok()) << name;
      EXPECT_GT(expected.num_matches, 0u) << name;

      RunOptions leaf = walk;
      leaf.visitor = nullptr;
      leaf.lint_plan = true;
      obs::RunReport report;
      leaf.report = &report;
      const RunResult counted = light::Run(g, pattern, leaf);
      ASSERT_TRUE(counted.ok()) << name << ": " << counted.error;
      EXPECT_EQ(counted.num_matches, expected.num_matches) << name;
      EXPECT_EQ(report.num_matches, counted.num_matches) << name;

      RunOptions parallel = leaf;
      parallel.report = nullptr;
      parallel.threads = 4;
      EXPECT_EQ(light::Run(g, pattern, parallel).num_matches,
                expected.num_matches)
          << name;
    }
  }
}

TEST(FacadeTest, DisconnectedPatternIsAnError) {
  // Two components, and an index gap that leaves vertex 1 isolated: both
  // are rejected at admission instead of reaching the planner.
  const Graph g = TestGraph();
  for (const char* edges : {"0-1,2-3", "0-2"}) {
    Pattern pattern;
    ASSERT_TRUE(ParsePattern(edges, &pattern).ok()) << edges;
    const RunResult r = light::Run(g, pattern, RunOptions());
    EXPECT_EQ(r.outcome, QueryOutcome::kError) << edges;
    EXPECT_NE(r.error.find("connected"), std::string::npos) << r.error;
  }
}

}  // namespace
}  // namespace light
