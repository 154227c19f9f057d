// Tests for the static plan linter (analysis/plan_linter.h): the produced
// plans for the whole pattern catalog lint clean across all four algorithm
// variants, and each class of hand-seeded plan corruption trips exactly the
// expected rule.

#include "analysis/plan_linter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "gen/generators.h"
#include "graph/bitmap_index.h"
#include "graph/graph_stats.h"
#include "light.h"
#include "obs/json.h"
#include "pattern/catalog.h"
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
  static const GraphStats stats = ComputeGraphStats(TestGraph());
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
      const ExecutionPlan plan =
          BuildPlan(entry.pattern, TestGraph(), stats, plan_options);
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
      const ExecutionPlan plan =
          BuildPlan(entry.pattern, TestGraph(), stats, plan_options);
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

// --- sb-comp-window: each way a COMP window can be wrong -------------------

TEST(AnalysisTest, BuiltCompWindowsLintClean) {
  Pattern p1;
  ASSERT_TRUE(FindPattern("P1", &p1).ok());
  const ExecutionPlan plan =
      BuildPlan(p1, TestGraph(), TestStats(), PlanOptions::Light());
  EXPECT_TRUE(plan.HasCompWindows()) << plan.ToString();
  const LintReport report = LintPlan(p1, plan, TestOptions());
  EXPECT_TRUE(report.empty()) << report.ToString();
}

TEST(AnalysisTest, CompWindowBoundMaterializedTooLateIsCaught) {
  // Triangle (u0, u1, u2): u2 is bound after COMP(u1), so phi(u2) is
  // unknown when C(u1) would be cut.
  ExecutionPlan plan =
      BuildPlanWithOrder(Triangle(), {0, 1, 2}, PlanOptions::Light());
  ASSERT_EQ(plan.comp_windows.size(), 3u);
  plan.comp_windows[1].upper.push_back(2);
  const LintReport report = LintPlan(Triangle(), plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "sb-comp-window")) << report.ToString();
  EXPECT_FALSE(report.ok());
}

TEST(AnalysisTest, CompWindowWithoutOrderRelationIsCaught) {
  // Path u0-u1-u2 under u0 < u2: nothing orders u1 against u0.
  ExecutionPlan plan = BuildPlanWithConstraints(
      Path2(), {0, 1, 2}, PlanOptions::Light(), {{0, 2}});
  ASSERT_EQ(plan.comp_windows.size(), 3u);
  EXPECT_TRUE(plan.comp_windows[1].empty());
  plan.comp_windows[1].lower.push_back(0);
  const LintReport report = LintPlan(Path2(), plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "sb-comp-window")) << report.ToString();
}

TEST(AnalysisTest, CompWindowBrokenForK2ReaderIsCaught) {
  // Diamond 0-1, 0-2, 1-2, 1-3, 2-3 under pi = (1, 2, 0, 3): C(u3) reads
  // C(u0) through K2. phi(u1) < phi(u0) holds for u0 but says nothing
  // about u3, so cutting C(u0) above phi(u1) would drop u3's candidates.
  const Pattern diamond =
      Pattern::FromEdges(4, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}});
  ExecutionPlan plan = BuildPlanWithConstraints(
      diamond, {1, 2, 0, 3}, PlanOptions::Light(), {{1, 0}});
  ASSERT_EQ(plan.operands[3].k2, std::vector<int>{0}) << plan.ToString();
  EXPECT_TRUE(plan.comp_windows[0].empty()) << plan.ToString();
  plan.comp_windows[0].lower.push_back(1);
  const LintReport report = LintPlan(diamond, plan, TestOptions());
  bool names_reader = false;
  for (const LintDiagnostic& d : report.diagnostics) {
    names_reader |= d.rule_id == "sb-comp-window" && d.edge.second == 3;
  }
  EXPECT_TRUE(names_reader) << report.ToString();
}

TEST(AnalysisTest, CompWindowsOfWrongLengthAreCaught) {
  ExecutionPlan plan =
      BuildPlanWithOrder(Triangle(), {0, 1, 2}, PlanOptions::Light());
  plan.comp_windows.resize(2);
  const LintReport report = LintPlan(Triangle(), plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "plan-shape")) << report.ToString();
}

// --- count-leaf: each way the closing-vertex form can be wrong ------------

ExecutionPlan FourCyclePlan() {
  Pattern p1;
  EXPECT_TRUE(FindPattern("P1", &p1).ok());
  return BuildPlan(p1, TestGraph(), TestStats(), PlanOptions::Light());
}

LintReport LintTwinClosure(const ExecutionPlan& plan) {
  return LintPlan(plan.pattern, plan, TestOptions());
}

TEST(AnalysisTest, BuiltTwinClosureLintsClean) {
  const ExecutionPlan plan = FourCyclePlan();
  ASSERT_EQ(plan.leaf.tail, (std::vector<int>{1, 3})) << plan.ToString();
  ASSERT_EQ(plan.leaf.b, 2) << plan.ToString();
  const LintReport report = LintTwinClosure(plan);
  EXPECT_TRUE(report.empty()) << report.ToString();
}

TEST(AnalysisTest, TwinClosureOverAdjacentTwinsIsCaught) {
  // Diamond: u1 and u3 are adjacent, so they are not twins.
  const Pattern diamond =
      Pattern::FromEdges(4, {{0, 1}, {0, 3}, {1, 2}, {2, 3}, {1, 3}});
  ExecutionPlan plan =
      BuildPlanWithOrder(diamond, {0, 1, 3, 2}, PlanOptions::Light());
  plan.leaf = {{1, 3}, {}, 2};
  const LintReport report = LintTwinClosure(plan);
  EXPECT_TRUE(HasRule(report, "count-leaf")) << report.ToString();
}

TEST(AnalysisTest, TwinClosureWithoutChainConstraintIsCaught) {
  ExecutionPlan plan = FourCyclePlan();
  std::erase(plan.partial_order, std::pair<int, int>{1, 3});
  std::erase(plan.lower_bounds[3], 1);
  const LintReport report = LintTwinClosure(plan);
  EXPECT_TRUE(HasRule(report, "count-leaf")) << report.ToString();
}

TEST(AnalysisTest, TwinClosureWithNonTwinOperandIsCaught) {
  ExecutionPlan plan = FourCyclePlan();
  plan.operands[2].k1.push_back(0);
  const LintReport report = LintTwinClosure(plan);
  EXPECT_TRUE(HasRule(report, "count-leaf")) << report.ToString();
}

TEST(AnalysisTest, TwinClosureWhoseWindowNamesATwinIsCaught) {
  ExecutionPlan plan = FourCyclePlan();
  plan.partial_order.emplace_back(1, 2);
  plan.lower_bounds[2].push_back(1);
  const LintReport report = LintTwinClosure(plan);
  bool names_twin = false;
  for (const LintDiagnostic& d : report.diagnostics) {
    names_twin |= d.rule_id == "count-leaf" && d.edge == std::pair{1, 2};
  }
  EXPECT_TRUE(names_twin) << report.ToString();
}

TEST(AnalysisTest, TwinClosureWithDifferentOuterBoundsIsCaught) {
  ExecutionPlan plan = FourCyclePlan();
  ASSERT_EQ(plan.lower_bounds[3], (std::vector<int>{0, 1}))
      << plan.ToString();
  std::erase(plan.partial_order, std::pair<int, int>{0, 3});
  std::erase(plan.lower_bounds[3], 0);
  const LintReport report = LintTwinClosure(plan);
  EXPECT_TRUE(HasRule(report, "count-leaf")) << report.ToString();
}

TEST(AnalysisTest, TwinClosureOnInducedOrCountedTailPlanIsCaught) {
  ExecutionPlan induced = FourCyclePlan();
  induced.options.induced = true;
  EXPECT_TRUE(HasRule(LintTwinClosure(induced), "count-leaf"));
  // A counted tail vertex with a non-edge check (u3 must not neighbour u1).
  ExecutionPlan tail = FourCyclePlan();
  tail.non_adjacent[3].push_back(1);
  EXPECT_TRUE(HasRule(LintTwinClosure(tail), "count-leaf"));
}

// --- count-leaf, twin form: twins that end sigma --------------------------

ExecutionPlan BookPlan() {
  Pattern p5;
  EXPECT_TRUE(FindPattern("P5", &p5).ok());
  return BuildPlan(p5, TestGraph(), TestStats(), PlanOptions::Light());
}

bool HasTwinMessage(const LintReport& report, const std::string& text) {
  for (const LintDiagnostic& d : report.diagnostics) {
    if (d.rule_id == "count-leaf" &&
        d.message.find(text) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(AnalysisTest, BuiltTwinLeafLintsClean) {
  const ExecutionPlan plan = BookPlan();
  ASSERT_EQ(plan.leaf.tail, (std::vector<int>{2, 3, 4, 5}))
      << plan.ToString();
  const LintReport report = LintTwinClosure(plan);
  EXPECT_TRUE(report.empty()) << report.ToString();
}

TEST(AnalysisTest, TwinLeafThatDoesNotEndSigmaIsCaught) {
  // u5 is a page too, but the leaf stops at u4: MAT(u5) would run after it.
  ExecutionPlan plan = BookPlan();
  plan.leaf.tail = {2, 3, 4};
  const LintReport report = LintTwinClosure(plan);
  EXPECT_TRUE(HasTwinMessage(report, "does not end MAT(t1) ... MAT(tk) over "
                                     "the leaf's vertices"))
      << report.ToString();
}

TEST(AnalysisTest, OneNeighbourTwinLeafLintsClean) {
  // The claw's leaves u2, u3 share only the centre u0: twins all the same.
  Pattern star3;
  ASSERT_TRUE(FindPattern("star3", &star3).ok());
  const ExecutionPlan plan =
      BuildPlanWithOrder(star3, {1, 0, 2, 3}, PlanOptions::Light());
  ASSERT_EQ(plan.leaf.tail, (std::vector<int>{2, 3})) << plan.ToString();
  ASSERT_TRUE(plan.leaf.twins());
  const LintReport report = LintTwinClosure(plan);
  EXPECT_TRUE(report.empty()) << report.ToString();
}

TEST(AnalysisTest, TwinClosureWithLateOuterUpperBoundIsCaught) {
  // An upper bound naming b (bound after the twins) on both twins: the
  // closure would read phi(u2) before it is bound.
  ExecutionPlan plan = FourCyclePlan();
  plan.upper_bounds[1].push_back(2);
  plan.upper_bounds[3].push_back(2);
  const LintReport report = LintTwinClosure(plan);
  EXPECT_TRUE(HasTwinMessage(report, "bound u2 of leaf vertex u1 is not "
                                     "bound before MAT(u1)"))
      << report.ToString();
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

// --- count-leaf, partition form: GraphPi's inclusion-exclusion ------------

/// path3 under pi = (u1, u2, u0, u3): the ends u0, u3 end sigma, and GK
/// pivots the middle (u1<u2), so they take the partition form.
ExecutionPlan PathLeafPlan() {
  const Pattern path = Pattern::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  ExecutionPlan plan =
      BuildPlanWithOrder(path, {1, 2, 0, 3}, PlanOptions::Light());
  EXPECT_EQ(plan.leaf.tail, (std::vector<int>{0, 3})) << plan.ToString();
  EXPECT_EQ(plan.leaf.terms.size(), 2u) << plan.ToString();
  return plan;
}

TEST(AnalysisTest, IepTermPlansAndDecompositionsLintClean) {
  // Every order of every catalog pattern: all leaf forms lint clean, and
  // the partition form (the IEP terms) shows up.
  size_t partition = 0;
  for (const PatternEntry& entry : PatternCatalog()) {
    if (entry.pattern.NumVertices() > 6) continue;
    std::vector<int> pi(static_cast<size_t>(entry.pattern.NumVertices()));
    std::iota(pi.begin(), pi.end(), 0);
    do {
      if (!IsConnectedOrder(entry.pattern, pi)) continue;
      const ExecutionPlan plan =
          BuildPlanWithOrder(entry.pattern, pi, PlanOptions::Light());
      partition += plan.leaf.terms.empty() ? 0 : 1;
      const LintReport report =
          LintPlan(entry.pattern, plan, TestOptions());
      EXPECT_TRUE(report.empty())
          << entry.name << ":\n" << plan.ToString() << report.ToString();
    } while (std::next_permutation(pi.begin(), pi.end()));
  }
  EXPECT_GE(partition, 5u);  // paths, P4, ... shed a tail
}

TEST(AnalysisTest, CountedTailSymmetryBreakingIsCaught) {
  // Twins the restrictions leave unordered: the binomial would count one
  // order of each pair that the walk counts twice.
  Pattern star3;
  ASSERT_TRUE(FindPattern("star3", &star3).ok());
  ExecutionPlan plan =
      BuildPlanWithOrder(star3, {1, 0, 2, 3}, PlanOptions::Light());
  ASSERT_EQ(plan.leaf.tail, (std::vector<int>{2, 3})) << plan.ToString();
  std::erase(plan.partial_order, std::pair<int, int>{2, 3});
  std::erase(plan.lower_bounds[3], 2);
  const LintReport report = LintPlan(plan.pattern, plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "count-leaf")) << report.ToString();
  EXPECT_FALSE(report.ok());
}

TEST(AnalysisTest, CountedTailAdjacencyIsCaught) {
  ExecutionPlan plan = PathLeafPlan();
  plan.pattern.AddEdge(0, 3);
  const LintReport report = LintPlan(plan.pattern, plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "count-leaf")) << report.ToString();
  EXPECT_FALSE(report.ok());
}

TEST(AnalysisTest, CountedTailConstraintIsCaught) {
  // u0 < u3 orders the partition form's tail: the sum counts both orders.
  ExecutionPlan plan = PathLeafPlan();
  plan.partial_order.emplace_back(0, 3);
  plan.lower_bounds[3].push_back(0);
  const LintReport report = LintPlan(plan.pattern, plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "count-leaf")) << report.ToString();
  EXPECT_FALSE(report.ok());
}

TEST(AnalysisTest, IepPartitionViolationsAreCaught) {
  // Terms that treat u0 and u3 as reading one set: their blocks merge.
  ExecutionPlan plan = PathLeafPlan();
  plan.leaf.terms[1] = PartitionSum({0, 0});
  const LintReport report = LintPlan(plan.pattern, plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "count-leaf")) << report.ToString();
  EXPECT_FALSE(report.ok());
}

TEST(AnalysisTest, IepTermCoefficientMutationIsCaught) {
  ExecutionPlan plan = PathLeafPlan();
  plan.leaf.terms[1].front().coefficient += 1;
  const LintReport report = LintPlan(plan.pattern, plan, TestOptions());
  EXPECT_EQ(CountRule(report, "count-leaf"), 2u) << report.ToString();
  EXPECT_FALSE(report.ok());
}

TEST(AnalysisTest, IepDroppedTermIsCaught) {
  ExecutionPlan plan = PathLeafPlan();
  ASSERT_GE(plan.leaf.terms[1].size(), 2u);
  plan.leaf.terms[1].pop_back();
  const LintReport report = LintPlan(plan.pattern, plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "count-leaf")) << report.ToString();
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

TEST(AnalysisTest, CompWindowOnCountedTailPlanIsCaught) {
  // Cutting C(u3) above u0 is enforced by no restriction: the leaf would
  // lose candidates.
  ExecutionPlan plan = PathLeafPlan();
  plan.comp_windows.assign(static_cast<size_t>(plan.pattern.NumVertices()),
                           {});
  plan.comp_windows[3].lower.push_back(1);
  const LintReport report = LintPlan(plan.pattern, plan, TestOptions());
  EXPECT_TRUE(HasRule(report, "sb-comp-window")) << report.ToString();
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace light::analysis
