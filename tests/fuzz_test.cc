#include "fuzz/fuzz.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/graph_stats.h"
#include "pattern/symmetry_breaking.h"
#include "reference.h"

namespace light::fuzz {
namespace {

TEST(CaseGenTest, IsDeterministic) {
  for (uint64_t i = 0; i < 20; ++i) {
    const FuzzCase a = GenerateCase(/*run_seed=*/7, i);
    const FuzzCase b = GenerateCase(/*run_seed=*/7, i);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.num_vertices, b.num_vertices);
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_EQ(a.pattern, b.pattern);
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(a.kernel, b.kernel);
    EXPECT_EQ(a.symmetry_breaking, b.symmetry_breaking);
    EXPECT_EQ(a.parallel.num_threads, b.parallel.num_threads);
    EXPECT_EQ(a.parallel.donation_check_interval,
              b.parallel.donation_check_interval);
  }
  // Different indices produce different cases (seeds must not collide).
  EXPECT_NE(GenerateCase(7, 0).seed, GenerateCase(7, 1).seed);
}

TEST(CaseGenTest, RespectsLimitsAndConnectivity) {
  CaseLimits limits;
  limits.max_graph_vertices = 24;
  for (uint64_t i = 0; i < 200; ++i) {
    const FuzzCase c = GenerateCase(/*run_seed=*/11, i, limits);
    EXPECT_GE(c.num_vertices, limits.min_graph_vertices);
    EXPECT_LE(c.num_vertices, limits.max_graph_vertices);
    EXPECT_GE(c.pattern.NumVertices(), limits.min_pattern_vertices);
    EXPECT_LE(c.pattern.NumVertices(), limits.max_pattern_vertices);
    EXPECT_TRUE(c.pattern.IsConnected()) << c.Describe();
    for (const auto& [u, v] : c.edges) {
      EXPECT_LT(u, c.num_vertices);
      EXPECT_LT(v, c.num_vertices);
      EXPECT_NE(u, v);
    }
    if (c.Labeled()) {
      EXPECT_EQ(c.labels.size(), c.num_vertices);
    }
    const Graph g = c.BuildGraph();
    EXPECT_EQ(g.NumVertices(), c.num_vertices);
    EXPECT_EQ(g.NumEdges(), c.edges.size());
  }
}

TEST(OracleTest, SeededSweepHasNoDivergences) {
  FuzzOptions options;
  options.seed = 2024;
  options.num_cases = 150;
  options.artifact_dir = "";  // tests never write artifacts
  FuzzSummary summary;
  const Status status = RunFuzz(options, &summary);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(summary.divergences, 0u);
  EXPECT_EQ(summary.cases_run, 150u);
}

TEST(OracleTest, PivotAgreesWithBruteForce) {
  // The differential check only proves the engines agree with each other;
  // anchor the pivot against the independent brute-force reference on small
  // unlabeled cases so "all engines wrong together" is ruled out too.
  CaseLimits limits;
  limits.max_graph_vertices = 14;
  limits.max_pattern_vertices = 4;
  limits.labeled_probability = 0;
  int checked = 0;
  for (uint64_t i = 0; checked < 25 && i < 100; ++i) {
    const FuzzCase c = GenerateCase(/*run_seed=*/5, i, limits);
    const Graph g = c.BuildGraph();
    const PartialOrder order = c.symmetry_breaking
                                   ? ComputeSymmetryBreaking(c.pattern)
                                   : PartialOrder{};
    const uint64_t expected =
        testing::BruteForceCountMatches(c.pattern, g, order);
    const OracleOutcome outcome = RunOracles(c);
    ASSERT_FALSE(outcome.engines.empty());
    ASSERT_FALSE(outcome.divergent)
        << c.Describe() << "\n" << outcome.Describe();
    EXPECT_EQ(outcome.engines.front().count, expected) << c.Describe();
    ++checked;
  }
  EXPECT_EQ(checked, 25);
}

TEST(OracleTest, HostileConfigsRunToCompletion) {
  // Out-of-domain ParallelOptions must normalize into a defined run, not UB.
  FuzzCase c = GenerateCase(/*run_seed=*/3, 0);
  c.parallel.donation_check_interval = 0;
  c.parallel.min_split_size = 0;
  c.parallel.initial_chunks_per_worker = -3;
  c.parallel.num_threads = 2;
  const OracleOutcome outcome = RunOracles(c);
  EXPECT_FALSE(outcome.divergent) << outcome.Describe();
}

TEST(ShrinkTest, MinimizesUnderSyntheticPredicate) {
  FuzzCase big = GenerateCase(/*run_seed=*/9, 4);
  ASSERT_GT(big.edges.size(), 5u);
  // Synthetic divergence: "at least 3 edges and 4 vertices". The shrinker
  // must drive the case to that boundary and reset config noise.
  const DivergencePredicate predicate = [](const FuzzCase& c) {
    return c.edges.size() >= 3 && c.num_vertices >= 4;
  };
  const FuzzCase small = Shrink(big, predicate);
  EXPECT_TRUE(predicate(small));
  EXPECT_EQ(small.edges.size(), 3u);
  EXPECT_LE(small.num_vertices, big.num_vertices);
  EXPECT_EQ(small.kernel, IntersectKernel::kMerge);
  EXPECT_EQ(small.parallel.num_threads, 1);
  EXPECT_FALSE(small.Labeled());
}

TEST(ShrinkTest, NonDivergentCaseIsReturnedUnchanged) {
  const FuzzCase c = GenerateCase(/*run_seed=*/9, 5);
  const FuzzCase same = Shrink(c, [](const FuzzCase&) { return false; });
  EXPECT_EQ(same.edges, c.edges);
  EXPECT_EQ(same.num_vertices, c.num_vertices);
}

TEST(ArtifactTest, RoundTripsEveryField) {
  for (uint64_t i = 0; i < 30; ++i) {
    FuzzCase c = GenerateCase(/*run_seed=*/13, i);
    const std::string text = FormatArtifact(c, RunOracles(c));
    FuzzCase parsed;
    ASSERT_TRUE(ParseArtifact(text, &parsed).ok()) << text;
    EXPECT_EQ(parsed.seed, c.seed);
    EXPECT_EQ(parsed.num_vertices, c.num_vertices);
    EXPECT_EQ(parsed.edges, c.edges);
    EXPECT_EQ(parsed.pattern, c.pattern);
    EXPECT_EQ(parsed.labels, c.labels);
    EXPECT_EQ(parsed.kernel, c.kernel);
    EXPECT_EQ(parsed.symmetry_breaking, c.symmetry_breaking);
    EXPECT_EQ(parsed.parallel.num_threads, c.parallel.num_threads);
    EXPECT_EQ(parsed.parallel.time_limit_seconds,
              c.parallel.time_limit_seconds);
    EXPECT_EQ(parsed.parallel.min_split_size, c.parallel.min_split_size);
    EXPECT_EQ(parsed.parallel.donation_check_interval,
              c.parallel.donation_check_interval);
    EXPECT_EQ(parsed.parallel.initial_chunks_per_worker,
              c.parallel.initial_chunks_per_worker);
  }
}

TEST(ArtifactTest, RejectsMalformedInput) {
  FuzzCase out;
  EXPECT_FALSE(ParseArtifact("not an artifact", &out).ok());
  EXPECT_FALSE(ParseArtifact("light_fuzz_artifact v1\n"
                             "graph 3 1\n"
                             "edge 0 7\n"  // endpoint out of range
                             "pattern 0-1,1-2\n",
                             &out)
                   .ok());
  EXPECT_FALSE(ParseArtifact("light_fuzz_artifact v1\n"
                             "graph 3 2\n"  // header claims 2 edges, file has 1
                             "edge 0 1\n"
                             "pattern 0-1,1-2\n",
                             &out)
                   .ok());
  EXPECT_FALSE(ParseArtifact("light_fuzz_artifact v1\n"
                             "graph 3 0\n"
                             "pattern 0-1\n"
                             "frobnicate 1\n",  // unknown key
                             &out)
                   .ok());
  EXPECT_FALSE(ParseArtifact("light_fuzz_artifact v1\n"
                             "graph 3 0\n"
                             "pattern 0-1\n"
                             "kernel HybridAVX512\n",  // removed kernel
                             &out)
                   .ok());
}

TEST(DriverTest, TimeBudgetStopsEarly) {
  FuzzOptions options;
  options.seed = 1;
  options.num_cases = 1000000;
  options.time_budget_seconds = 0.3;
  options.artifact_dir = "";
  FuzzSummary summary;
  ASSERT_TRUE(RunFuzz(options, &summary).ok());
  EXPECT_GT(summary.cases_run, 0u);
  EXPECT_LT(summary.cases_run, 1000000u);
}

}  // namespace
}  // namespace light::fuzz
