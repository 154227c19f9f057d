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

TEST(FacadeTest, IepCountingMatchesEnumeration) {
  const Graph g = TestGraph();
  for (const char* name : {"star4", "triangle", "book4", "diamond"}) {
    Pattern pattern;
    ASSERT_TRUE(FindPattern(name, &pattern).ok());

    RunOptions enumerate;
    enumerate.threads = 1;
    const RunResult expected = light::Run(g, pattern, enumerate);
    ASSERT_TRUE(expected.ok()) << name;

    RunOptions iep;
    iep.threads = 1;
    iep.lint_plan = true;
    iep.plan_options.count_strategy = CountStrategy::kIep;
    obs::RunReport iep_report;
    iep.report = &iep_report;
    const RunResult via_iep = light::Run(g, pattern, iep);
    ASSERT_TRUE(via_iep.ok()) << name << ": " << via_iep.error;
    EXPECT_EQ(via_iep.num_matches, expected.num_matches) << name;
    // The report's answer is the combined signed count, not the raw
    // unsigned sum of per-term enumerations.
    EXPECT_EQ(iep_report.num_matches, via_iep.num_matches) << name;

    // All-embeddings mode goes through IEP without the |Aut| division.
    RunOptions iep_all = iep;
    iep_all.unique_subgraphs = false;
    RunOptions enum_all = enumerate;
    enum_all.unique_subgraphs = false;
    EXPECT_EQ(light::Run(g, pattern, iep_all).num_matches,
              light::Run(g, pattern, enum_all).num_matches)
        << name;

    // Parallel IEP (per-term pool queries) agrees with serial IEP.
    RunOptions iep_parallel = iep;
    iep_parallel.threads = 4;
    EXPECT_EQ(light::Run(g, pattern, iep_parallel).num_matches,
              expected.num_matches)
        << name;
  }
}

TEST(FacadeTest, CountStrategyAutoMatchesEnumeration) {
  const Graph g = TestGraph();
  Pattern star;
  ASSERT_TRUE(FindPattern("star5", &star).ok());
  RunOptions enumerate;
  enumerate.threads = 1;
  RunOptions aut = enumerate;
  aut.plan_options.count_strategy = CountStrategy::kAuto;
  EXPECT_EQ(light::Run(g, star, aut).num_matches,
            light::Run(g, star, enumerate).num_matches);
}

// kAuto counts by enumeration when the enumeration plan ends in a twin
// leaf (book4 = P5's pages, the diamond's u1 and u3), and by IEP terms for
// a star, whose one-neighbour twins keep walking. A fresh session caches one
// plan per part, plus the enumeration plan kAuto resolved to decide.
TEST(FacadeTest, CountStrategyAutoEnumeratesTwinLeaves) {
  const Graph g = TestGraph();
  for (const char* name : {"book4", "P5", "diamond", "star4"}) {
    Pattern pattern;
    ASSERT_TRUE(FindPattern(name, &pattern).ok());
    const bool leaf = std::string(name) != "star4";
    RunOptions options;
    options.threads = 1;
    options.lint_plan = true;
    options.plan_options.count_strategy = CountStrategy::kIep;
    const uint64_t expected = light::Run(g, pattern, options).num_matches;
    EXPECT_GT(expected, 0u) << name;

    options.plan_options.count_strategy = CountStrategy::kAuto;
    Session session(g, {});
    const RunResult result = session.RunSync(pattern, options);
    ASSERT_TRUE(result.ok()) << name << ": " << result.error;
    EXPECT_EQ(result.num_matches, expected) << name;
    const size_t terms = BuildIepDecomposition(pattern).terms.size();
    ASSERT_GT(terms, 1u) << name;
    EXPECT_EQ(session.stats().plan_cache_misses, leaf ? 1u : 1u + terms)
        << name;
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
