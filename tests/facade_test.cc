#include "light.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "gen/generators.h"
#include "pattern/symmetry_breaking.h"
#include "results/match_writer.h"

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

TEST(FacadeTest, CoOptimizedRestrictionsMatchDefaultPlan) {
  const Graph g = TestGraph();
  for (const char* name : {"square", "diamond", "house"}) {
    Pattern pattern;
    ASSERT_TRUE(FindPattern(name, &pattern).ok());
    RunOptions classic;
    classic.threads = 1;
    RunOptions restricted = classic;
    restricted.lint_plan = true;
    restricted.plan_options.restriction_mode = RestrictionMode::kCoOptimized;
    const RunResult a = light::Run(g, pattern, classic);
    const RunResult b = light::Run(g, pattern, restricted);
    ASSERT_TRUE(b.ok()) << name << ": " << b.error;
    EXPECT_EQ(a.num_matches, b.num_matches) << name;

    RunOptions auto_mode = classic;
    auto_mode.plan_options.restriction_mode = RestrictionMode::kAuto;
    EXPECT_EQ(light::Run(g, pattern, auto_mode).num_matches, a.num_matches)
        << name;
  }
}

TEST(MatchWriterTest, WritesMatchesToFile) {
  const Graph g = TestGraph();
  Pattern triangle;
  ASSERT_TRUE(FindPattern("triangle", &triangle).ok());
  const std::string path = ::testing::TempDir() + "/matches.txt";
  std::unique_ptr<MatchFileWriter> writer;
  ASSERT_TRUE(MatchFileWriter::Open(path, /*limit=*/0, &writer).ok());
  RunOptions options;
  options.visitor = writer.get();
  const RunResult r = light::Run(g, triangle, options);
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_EQ(writer->matches_written(), r.num_matches);

  // Count lines and spot-check the format.
  FILE* f = fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  uint64_t lines = 0;
  unsigned a = 0;
  unsigned b = 0;
  unsigned c = 0;
  while (fscanf(f, "%u %u %u", &a, &b, &c) == 3) {
    ++lines;
    EXPECT_TRUE(g.HasEdge(a, b));
    EXPECT_TRUE(g.HasEdge(b, c));
    EXPECT_TRUE(g.HasEdge(a, c));
  }
  fclose(f);
  EXPECT_EQ(lines, r.num_matches);
  std::remove(path.c_str());
}

TEST(MatchWriterTest, LimitStopsEnumeration) {
  const Graph g = TestGraph();
  Pattern triangle;
  ASSERT_TRUE(FindPattern("triangle", &triangle).ok());
  const std::string path = ::testing::TempDir() + "/limited.txt";
  std::unique_ptr<MatchFileWriter> writer;
  ASSERT_TRUE(MatchFileWriter::Open(path, /*limit=*/7, &writer).ok());
  RunOptions options;
  options.visitor = writer.get();
  light::Run(g, triangle, options);
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_EQ(writer->matches_written(), 7u);
  std::remove(path.c_str());
}

TEST(MatchWriterTest, OpenFailsOnBadPath) {
  std::unique_ptr<MatchFileWriter> writer;
  EXPECT_EQ(MatchFileWriter::Open("/no/such/dir/x.txt", 0, &writer).code(),
            Status::Code::kIOError);
}

}  // namespace
}  // namespace light
