// Tests for the static plan linter (analysis/plan_linter.h): the produced
// plans for the whole pattern catalog lint clean across all four algorithm
// variants, and each class of hand-seeded plan corruption trips exactly the
// expected rule.

#include "analysis/plan_linter.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "gen/generators.h"
#include "graph/bitmap_index.h"
#include "graph/graph_stats.h"
#include "light.h"
#include "obs/json.h"
#include "pattern/catalog.h"
#include "plan/iep.h"
#include "plan/plan.h"

namespace light::analysis {
namespace {

size_t CountRule(const LintReport& report, const std::string& rule_id) {
  size_t count = 0;
  for (const LintDiagnostic& d : report.diagnostics) {
    if (d.rule_id == rule_id) ++count;
  }
  return count;
}

bool HasRule(const LintReport& report, const std::string& rule_id) {
  return CountRule(report, rule_id) > 0;
}

const Graph& TestGraph() {
  static const Graph graph = ErdosRenyi(/*n=*/256, /*m=*/2048, /*seed=*/7);
  return graph;
}

GraphStats TestStats() {
  static const GraphStats stats =
      ComputeGraphStats(TestGraph(), /*count_triangles=*/true);
  return stats;
}

LintOptions TestOptions() {
  LintOptions options;
  options.cardinality = AnalyticCardinalityFn(TestStats());
  return options;
}

Pattern Triangle() {
  return Pattern::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
}

Pattern Path2() { return Pattern::FromEdges(3, {{0, 1}, {1, 2}}); }

// --- Produced plans are clean ----------------------------------------------

TEST(AnalysisTest, CatalogPlansLintCleanAcrossAllVariants) {
  const GraphStats stats = TestStats();
  const LintOptions options = TestOptions();
  const std::vector<std::pair<std::string, PlanOptions>> variants = {
      {"light", PlanOptions::Light()},
      {"lm", PlanOptions::Lm()},
      {"msc", PlanOptions::Msc()},
      {"se", PlanOptions::Se()},
  };
  for (const PatternEntry& entry : PatternCatalog()) {
    for (const auto& [name, plan_options] : variants) {
      const ExecutionPlan plan = BuildPlan(entry.pattern, stats, plan_options);
      const LintReport report = LintPlan(entry.pattern, plan, options);
      EXPECT_TRUE(report.empty())
          << entry.name << " (" << name << "):\n" << report.ToString();
    }
  }
}

TEST(AnalysisTest, InducedAndUnbrokenPlansLintClean) {
  const GraphStats stats = TestStats();
  for (const PatternEntry& entry : PatternCatalog()) {
    PlanOptions induced = PlanOptions::Light();
    induced.induced = true;
    PlanOptions no_sb = PlanOptions::Light();
    no_sb.symmetry_breaking = false;
    for (const PlanOptions& plan_options : {induced, no_sb}) {
      const ExecutionPlan plan = BuildPlan(entry.pattern, stats, plan_options);
      const LintReport report = LintPlan(entry.pattern, plan, TestOptions());
      EXPECT_TRUE(report.empty())
          << entry.name << ":\n" << report.ToString();
    }
  }
}

// --- Seeded corruptions trip the expected rule -----------------------------

TEST(AnalysisTest, DroppedCoverElementIsIncomplete) {
  ExecutionPlan plan =
      BuildPlanWithOrder(Triangle(), {0, 1, 2}, PlanOptions::Light());
  Operands& last = plan.operands[2];
  ASSERT_FALSE(last.k1.empty());
  last.k1.pop_back();  // one backward neighbor now uncovered
  const LintReport report = LintPlan(Triangle(), plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "cover-incomplete")) << report.ToString();
  EXPECT_FALSE(report.ok());
}

TEST(AnalysisTest, CyclicPartialOrderIsCaught) {
  ExecutionPlan plan =
      BuildPlanWithOrder(Triangle(), {0, 1, 2}, PlanOptions::Light());
  plan.partial_order = {{0, 1}, {1, 2}, {2, 0}};
  const LintReport report = LintPlan(Triangle(), plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "sb-cycle")) << report.ToString();
  EXPECT_FALSE(report.ok());
}

TEST(AnalysisTest, AntisymmetryViolationIsCaught) {
  ExecutionPlan plan =
      BuildPlanWithOrder(Triangle(), {0, 1, 2}, PlanOptions::Light());
  plan.partial_order = {{0, 1}, {1, 0}};
  const LintReport report = LintPlan(Triangle(), plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "sb-antisymmetry")) << report.ToString();
}

TEST(AnalysisTest, DisconnectedOrderSeverityTracksMaterialization) {
  // pi = (0, 2, 1) is disconnected on the path 0-1-2: u2 has no backward
  // neighbor. Eager (SE-style) plans tolerate it with degraded candidates;
  // the lazy schedule's assumptions break, so there it is an error.
  ExecutionPlan plan =
      BuildPlanWithOrder(Path2(), {0, 2, 1}, PlanOptions::Se());
  LintReport report = LintPlan(Path2(), plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "order-connectivity")) << report.ToString();
  EXPECT_TRUE(report.ok()) << report.ToString();  // warning, not error

  plan.options.lazy_materialization = true;
  report = LintPlan(Path2(), plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "order-connectivity"));
  EXPECT_FALSE(report.ok());
}

TEST(AnalysisTest, WrongConstraintBreaksBothGrochowKellisConditions) {
  // The path 0-1-2 has Aut = {id, 0<->2}; the correct constraint set is
  // {(0, 2)}. The unrelated constraint (0, 1) leaves both images of some
  // instances alive (double count) and kills both images of others.
  const ExecutionPlan plan = BuildPlanWithConstraints(
      Path2(), {0, 1, 2}, PlanOptions::Light(), {{0, 1}});
  const LintReport report = LintPlan(Path2(), plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "sb-unkilled-automorphism"))
      << report.ToString();
  EXPECT_TRUE(HasRule(report, "sb-kills-valid-embedding"));
}

TEST(AnalysisTest, OverConstrainedOrderOnlyKillsEmbeddings) {
  // {(0, 2)} is the correct symmetry breaking for the path; the extra
  // constraint (1, 0) drops instances without ever double-counting.
  const ExecutionPlan plan = BuildPlanWithConstraints(
      Path2(), {0, 1, 2}, PlanOptions::Light(), {{0, 2}, {1, 0}});
  const LintReport report = LintPlan(Path2(), plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "sb-kills-valid-embedding"))
      << report.ToString();
  EXPECT_FALSE(HasRule(report, "sb-unkilled-automorphism"));
}

TEST(AnalysisTest, MisWiredConstraintsAreCaught) {
  ExecutionPlan plan =
      BuildPlanWithOrder(Triangle(), {0, 1, 2}, PlanOptions::Light());
  ASSERT_FALSE(plan.partial_order.empty());
  for (auto& bounds : plan.lower_bounds) bounds.clear();
  for (auto& bounds : plan.upper_bounds) bounds.clear();
  const LintReport report = LintPlan(Triangle(), plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "sb-wiring")) << report.ToString();
}

TEST(AnalysisTest, K2OverreachIsCaught) {
  // Diamond 0-1, 0-2, 1-2, 1-3, 2-3 under pi = (0, 1, 2, 3): u3's backward
  // neighbors are {1, 2} but C(u2) additionally enforces adjacency to
  // phi(u0), which u3 does not require — valid embeddings are dropped.
  const Pattern diamond =
      Pattern::FromEdges(4, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}});
  ExecutionPlan plan =
      BuildPlanWithOrder(diamond, {0, 1, 2, 3}, PlanOptions::Light());
  plan.operands[3].k1 = {1, 2};
  plan.operands[3].k2 = {2};
  const LintReport report = LintPlan(diamond, plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "cover-overreach")) << report.ToString();
  EXPECT_FALSE(HasRule(report, "cover-incomplete"));
}

TEST(AnalysisTest, RedundantOperandIsNotMinimal) {
  const Pattern k4 = Pattern::FromEdges(
      4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  ExecutionPlan plan =
      BuildPlanWithOrder(k4, {0, 1, 2, 3}, PlanOptions::Light());
  // A duplicate covering operand keeps the cover valid but not minimal.
  plan.operands[3].k1.push_back(0);
  const LintReport report = LintPlan(k4, plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "cover-not-minimal")) << report.ToString();
  EXPECT_TRUE(report.ok());  // a warning: wasteful, not wrong
}

TEST(AnalysisTest, FirstVertexMustNotCarryOperands) {
  ExecutionPlan plan =
      BuildPlanWithOrder(Triangle(), {0, 1, 2}, PlanOptions::Light());
  plan.operands[0].k1 = {1};
  const LintReport report = LintPlan(Triangle(), plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "operands-first-vertex")) << report.ToString();
}

TEST(AnalysisTest, BrokenSigmaIsCaught) {
  ExecutionPlan plan =
      BuildPlanWithOrder(Triangle(), {0, 1, 2}, PlanOptions::Light());
  plan.sigma.erase(plan.sigma.begin());  // drops MAT(pi[0])
  const LintReport report = LintPlan(Triangle(), plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "sigma-structure")) << report.ToString();
}

TEST(AnalysisTest, NonPermutationOrderIsCaught) {
  ExecutionPlan plan =
      BuildPlanWithOrder(Triangle(), {0, 1, 2}, PlanOptions::Light());
  plan.pi = {0, 0, 2};
  const LintReport report = LintPlan(Triangle(), plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "order-permutation")) << report.ToString();
}

TEST(AnalysisTest, PatternMismatchIsCaught) {
  const ExecutionPlan plan =
      BuildPlanWithOrder(Triangle(), {0, 1, 2}, PlanOptions::Light());
  const LintReport report = LintPlan(Path2(), plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "plan-pattern-mismatch")) << report.ToString();
}

TEST(AnalysisTest, StrayNonAdjacencyCheckIsCaught) {
  const Pattern square =
      Pattern::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  ExecutionPlan plan =
      BuildPlanWithOrder(square, {0, 1, 2, 3}, PlanOptions::Light());
  plan.non_adjacent[3] = {1};  // induced-only check on a non-induced plan
  const LintReport report = LintPlan(square, plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "induced-wiring")) << report.ToString();
}

TEST(AnalysisTest, DroppedInducedCheckIsCaught) {
  const Pattern square =
      Pattern::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  PlanOptions options = PlanOptions::Light();
  options.induced = true;
  ExecutionPlan plan = BuildPlanWithOrder(square, {0, 1, 2, 3}, options);
  bool dropped = false;
  for (auto& checks : plan.non_adjacent) {
    if (!checks.empty()) {
      checks.clear();
      dropped = true;
      break;
    }
  }
  ASSERT_TRUE(dropped);
  const LintReport report = LintPlan(square, plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "induced-wiring")) << report.ToString();
}

// --- Cardinality rules -----------------------------------------------------

TEST(AnalysisTest, NegativeCardinalityEstimateIsCaught) {
  const ExecutionPlan plan =
      BuildPlanWithOrder(Triangle(), {0, 1, 2}, PlanOptions::Light());
  LintOptions options;
  options.cardinality = [](const Pattern&, uint32_t) { return -1.0; };
  const LintReport report = LintPlan(Triangle(), plan, options);
  EXPECT_TRUE(HasRule(report, "cardinality-negative")) << report.ToString();
}

TEST(AnalysisTest, NonMonotoneEstimatorIsCaught) {
  const ExecutionPlan plan =
      BuildPlanWithOrder(Triangle(), {0, 1, 2}, PlanOptions::Light());
  LintOptions options;
  // Estimate grows with the edge count: dropping an edge then *lowers* the
  // estimate, the opposite of refinement monotonicity.
  options.cardinality = [](const Pattern& p, uint32_t) {
    return static_cast<double>(p.NumEdges());
  };
  const LintReport report = LintPlan(Triangle(), plan, options);
  EXPECT_TRUE(HasRule(report, "cardinality-nonmonotone")) << report.ToString();
  EXPECT_TRUE(report.ok());  // warning severity
}

TEST(AnalysisTest, OrbitBudgetSkipsWithInfoNote) {
  const ExecutionPlan plan =
      BuildPlanWithOrder(Triangle(), {0, 1, 2}, PlanOptions::Light());
  LintOptions options = TestOptions();
  options.max_orbit_work = 1;
  const LintReport report = LintPlan(Triangle(), plan, options);
  EXPECT_TRUE(HasRule(report, "sb-exhaustive-skipped")) << report.ToString();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.warnings(), 0u);  // info only
}

// --- Bitmap-config rules ---------------------------------------------------

TEST(AnalysisTest, BitmapConfigRules) {
  LintReport report;
  LintBitmapConfig(kBitmapDegreeNever, /*density=*/0.5, /*max_bytes=*/0,
                   &report);
  EXPECT_TRUE(report.empty());  // index disabled: budget irrelevant

  report = LintReport();
  LintBitmapConfig(/*min_degree=*/64, /*density=*/0.5, /*max_bytes=*/0,
                   &report);
  EXPECT_TRUE(HasRule(report, "bitmap-budget-zero"));
  EXPECT_TRUE(report.ok());

  report = LintReport();
  LintBitmapConfig(kBitmapDegreeNever - 1, /*density=*/1.5,
                   /*max_bytes=*/1 << 20, &report);
  EXPECT_TRUE(HasRule(report, "bitmap-density-excessive"));

  report = LintReport();
  LintBitmapConfig(/*min_degree=*/64, std::nan(""), /*max_bytes=*/1 << 20,
                   &report);
  EXPECT_TRUE(HasRule(report, "bitmap-density-invalid"));
  EXPECT_FALSE(report.ok());
}

// --- Output formats --------------------------------------------------------

TEST(AnalysisTest, DiagnosticJsonRoundTrips) {
  ExecutionPlan plan =
      BuildPlanWithOrder(Triangle(), {0, 1, 2}, PlanOptions::Light());
  plan.partial_order = {{0, 1}, {1, 2}, {2, 0}};
  const LintReport report = LintPlan(Triangle(), plan, TestOptions());
  ASSERT_FALSE(report.empty());
  const LintDiagnostic& d = report.diagnostics.front();

  obs::JsonValue value;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(d.ToJson(), &value, &error)) << error;
  EXPECT_EQ(value["severity"].string_value, "error");
  EXPECT_EQ(value["rule"].string_value, d.rule_id);
  EXPECT_FALSE(value["message"].string_value.empty());

  // ToJsonl emits one parseable object per line.
  const std::string jsonl = report.ToJsonl();
  size_t lines = 0;
  size_t start = 0;
  while (start < jsonl.size()) {
    const size_t end = jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    ASSERT_TRUE(
        obs::ParseJson(jsonl.substr(start, end - start), &value, &error))
        << error;
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, report.diagnostics.size());
}

// --- Counted-tail and IEP-decomposition rules ------------------------------

Pattern Star3() {
  return Pattern::FromEdges(4, {{0, 1}, {0, 2}, {0, 3}});
}

/// A term plan of Star3 whose counted tail has at least two merged
/// vertices (the 2-block partition term).
ExecutionPlan TwoTailTermPlan(IepDecomposition* dec_out = nullptr) {
  const IepDecomposition dec = BuildIepDecomposition(Star3());
  for (const IepTerm& term : dec.terms) {
    if (term.counted_tail.size() == 2) {
      if (dec_out != nullptr) *dec_out = dec;
      return BuildIepTermPlan(term, TestGraph(), TestStats(),
                              PlanOptions::Light());
    }
  }
  ADD_FAILURE() << "star3 decomposition lacks a 2-block term";
  return {};
}

TEST(AnalysisTest, IepTermPlansAndDecompositionsLintClean) {
  const GraphStats stats = TestStats();
  size_t decomposable = 0;
  for (const PatternEntry& entry : PatternCatalog()) {
    const IepDecomposition dec = BuildIepDecomposition(entry.pattern);
    if (!dec.valid()) continue;
    ++decomposable;
    const LintReport dec_report = LintIepDecomposition(entry.pattern, dec);
    EXPECT_TRUE(dec_report.empty())
        << entry.name << ":\n" << dec_report.ToString();
    for (const IepTerm& term : dec.terms) {
      const ExecutionPlan plan =
          BuildIepTermPlan(term, TestGraph(), stats, PlanOptions::Light());
      const LintReport report = LintPlan(term.pattern, plan, TestOptions());
      EXPECT_TRUE(report.empty())
          << entry.name << ":\n" << report.ToString();
    }
  }
  EXPECT_GE(decomposable, 5u);  // stars, paths, trees all shed a tail
}

TEST(AnalysisTest, CountedTailSymmetryBreakingIsCaught) {
  ExecutionPlan plan = TwoTailTermPlan();
  plan.options.symmetry_breaking = true;
  const LintReport report = LintPlan(plan.pattern, plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "iep-tail-symmetry")) << report.ToString();
  EXPECT_FALSE(report.ok());
}

TEST(AnalysisTest, CountedTailAdjacencyIsCaught) {
  ExecutionPlan plan = TwoTailTermPlan();
  ASSERT_EQ(plan.counted_tail.size(), 2u);
  plan.pattern.AddEdge(plan.counted_tail[0], plan.counted_tail[1]);
  const LintReport report = LintPlan(plan.pattern, plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "iep-tail-not-independent"))
      << report.ToString();
  EXPECT_FALSE(report.ok());
}

TEST(AnalysisTest, CountedTailConstraintIsCaught) {
  ExecutionPlan plan = TwoTailTermPlan();
  const int t = plan.counted_tail.front();
  plan.lower_bounds[static_cast<size_t>(t)].push_back(0);
  const LintReport report = LintPlan(plan.pattern, plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "iep-tail-constrained")) << report.ToString();
  EXPECT_FALSE(report.ok());
}

TEST(AnalysisTest, IepPartitionViolationsAreCaught) {
  IepDecomposition dec = BuildIepDecomposition(Star3());
  ASSERT_TRUE(dec.valid());
  dec.kernel.push_back(dec.tail.front());  // vertex now in both parts
  const LintReport report = LintIepDecomposition(Star3(), dec);
  EXPECT_TRUE(HasRule(report, "iep-partition")) << report.ToString();
  EXPECT_FALSE(report.ok());
}

TEST(AnalysisTest, IepKernelDisconnectedIsCaught) {
  // path3 with the middle vertex shed: the endpoints do not touch.
  const Pattern path = Path2();
  IepDecomposition dec;
  dec.kernel = {0, 2};
  dec.tail = {1};
  const LintReport report = LintIepDecomposition(path, dec);
  EXPECT_TRUE(HasRule(report, "iep-kernel-disconnected"))
      << report.ToString();
  EXPECT_FALSE(report.ok());
}

TEST(AnalysisTest, IepWrongAutomorphismCountIsCaught) {
  IepDecomposition dec = BuildIepDecomposition(Star3());
  ASSERT_TRUE(dec.valid());
  dec.automorphism_count += 1;
  const LintReport report = LintIepDecomposition(Star3(), dec);
  EXPECT_TRUE(HasRule(report, "iep-automorphism-count"))
      << report.ToString();
  EXPECT_FALSE(report.ok());
}

TEST(AnalysisTest, IepTermCoefficientMutationIsCaught) {
  IepDecomposition dec = BuildIepDecomposition(Star3());
  ASSERT_TRUE(dec.valid());
  ASSERT_FALSE(dec.terms.empty());
  dec.terms.front().coefficient += 1;
  const LintReport report = LintIepDecomposition(Star3(), dec);
  EXPECT_TRUE(HasRule(report, "iep-term-mismatch")) << report.ToString();
  EXPECT_TRUE(HasRule(report, "iep-sum-inexact")) << report.ToString();
  EXPECT_FALSE(report.ok());
}

TEST(AnalysisTest, IepDroppedTermIsCaught) {
  IepDecomposition dec = BuildIepDecomposition(Star3());
  ASSERT_TRUE(dec.valid());
  ASSERT_GE(dec.terms.size(), 2u);
  dec.terms.pop_back();
  const LintReport report = LintIepDecomposition(Star3(), dec);
  EXPECT_TRUE(HasRule(report, "iep-term-mismatch")) << report.ToString();
  EXPECT_FALSE(report.ok());
}

// --- The facade gate -------------------------------------------------------

TEST(AnalysisTest, RunRejectsCorruptInjectedPlan) {
  const Graph g = ErdosRenyi(/*n=*/128, /*m=*/512, /*seed=*/3);
  const Pattern triangle = Triangle();
  ExecutionPlan plan =
      BuildPlanWithOrder(triangle, {0, 1, 2}, PlanOptions::Light());
  plan.partial_order = {{0, 1}, {1, 2}, {2, 0}};

  RunOptions options;
  options.threads = 1;
  options.plan = &plan;
  options.lint_plan = true;
  const RunResult result = light::Run(g, triangle, options);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("plan lint failed"), std::string::npos)
      << result.error;
  EXPECT_NE(result.error.find("sb-cycle"), std::string::npos) << result.error;
}

TEST(AnalysisTest, RunAcceptsCleanPlanWithLintOn) {
  const Graph g = ErdosRenyi(/*n=*/128, /*m=*/512, /*seed=*/3);
  const Pattern triangle = Triangle();

  RunOptions lint_on;
  lint_on.threads = 1;
  lint_on.lint_plan = true;
  const RunResult linted = light::Run(g, triangle, lint_on);
  ASSERT_TRUE(linted.ok()) << linted.error;

  RunOptions lint_off = lint_on;
  lint_off.lint_plan = false;
  const RunResult unlinted = light::Run(g, triangle, lint_off);
  ASSERT_TRUE(unlinted.ok()) << unlinted.error;
  EXPECT_EQ(linted.num_matches, unlinted.num_matches);
}

}  // namespace
}  // namespace light::analysis
