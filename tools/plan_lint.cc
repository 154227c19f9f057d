// Static verification of LIGHT execution plans (analysis/plan_linter.h).
//
// Builds the plan the engine would execute for a pattern — from the named
// catalog, an inline edge list, or a pattern file — and checks the full
// invariant battery: matching-order connectivity, symmetry-breaking
// consistency with the automorphism group, set-cover completeness and
// minimality, constraint wiring, cardinality sanity, and bitmap-config
// ranges. Diagnostics print as human-readable text or JSONL.
//
// Examples:
//   plan_lint --all
//   plan_lint --pattern P3 --algo se
//   plan_lint --pattern-edges "0-1,1-2,0-2" --order 2,0,1
//   plan_lint --all --format jsonl
//   plan_lint --pattern P5 --graph data/soc.txt
//
// Exit status: 0 = no errors (warnings allowed unless --strict),
//              1 = usage or I/O error, 2 = lint findings.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "flags.h"
#include "analysis/plan_linter.h"
#include "gen/generators.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "obs/json.h"
#include "pattern/catalog.h"
#include "pattern/parse.h"
#include "plan/plan.h"

namespace {

using light::analysis::LintDiagnostic;
using light::analysis::LintReport;
using light::analysis::LintSeverity;
using light::analysis::LintSeverityName;

void Usage() {
  std::fprintf(stderr, R"(plan_lint: static verification of execution plans

  --pattern NAME      lint one catalog pattern (P1..P7, triangle, k4, ...)
  --pattern-edges S   lint an ad-hoc pattern, e.g. "0-1,1-2,0-2;0:5"
                      (--edges is accepted as an alias)
  --pattern-file P    lint a pattern read from a file (same syntax)
  --all               lint the entire pattern catalog (default)
  --algo A            plan variant: light | lm | msc | se (default light)
  --no-symmetry       build the plan without symmetry breaking
  --induced           vertex-induced (motif) matching semantics
  --order i,j,...     pinned enumeration order instead of the optimizer
  --graph PATH        data graph (edge list) for plan + cardinality stats;
                      default is a seeded synthetic Erdos-Renyi graph
  --no-cardinality    skip the cardinality-* sanity rules
  --format F          text | jsonl (default text)
  --strict            exit 2 on warnings too

exit status: 0 = clean, 1 = usage/IO error, 2 = lint findings
)");
}

using light::tools::FlagSet;
using light::tools::FlagValue;

/// One JSONL record per diagnostic, with the pattern name attached so a
/// multi-pattern run stays self-describing.
std::string DiagnosticJson(const std::string& pattern_name,
                           const LintDiagnostic& d) {
  light::obs::JsonWriter w;
  w.BeginObject();
  w.KV("pattern", pattern_name);
  w.KV("severity", LintSeverityName(d.severity));
  w.KV("rule", d.rule_id);
  w.KV("message", d.message);
  if (d.vertex >= 0) w.KV("vertex", d.vertex);
  if (d.edge.first >= 0 || d.edge.second >= 0) {
    w.Key("edge");
    w.BeginArray();
    w.Int(d.edge.first);
    w.Int(d.edge.second);
    w.EndArray();
  }
  w.EndObject();
  return w.Take();
}

struct ToolConfig {
  light::PlanOptions plan_options;
  std::vector<int> pinned_order;  // empty = run the order optimizer
  bool cardinality = true;
  bool jsonl = false;
  bool strict = false;
};

/// Lints one pattern; returns the number of findings at or above the
/// failure threshold.
size_t LintOne(const std::string& name, const light::Pattern& pattern,
               const light::Graph& graph, const light::GraphStats& stats,
               const ToolConfig& config) {
  light::ExecutionPlan plan;
  if (!config.pinned_order.empty()) {
    plan = light::BuildPlanWithOrder(pattern, config.pinned_order,
                                     config.plan_options);
  } else {
    plan = light::BuildPlan(pattern, graph, stats, config.plan_options);
  }

  light::analysis::LintOptions lint_options;
  if (config.cardinality) {
    lint_options.cardinality = light::analysis::AnalyticCardinalityFn(stats);
  }
  const LintReport report =
      light::analysis::LintPlan(pattern, plan, lint_options);

  if (config.jsonl) {
    for (const LintDiagnostic& d : report.diagnostics) {
      std::printf("%s\n", DiagnosticJson(name, d).c_str());
    }
  } else if (report.empty()) {
    std::printf("%s: clean (n=%d m=%d)\n", name.c_str(),
                pattern.NumVertices(), pattern.NumEdges());
  } else {
    std::printf("%s: %zu error(s), %zu warning(s)\n", name.c_str(),
                report.errors(), report.warnings());
    for (const LintDiagnostic& d : report.diagnostics) {
      std::printf("  %s\n", d.ToString().c_str());
    }
  }
  return report.errors() + (config.strict ? report.warnings() : 0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace light;
  if (FlagSet(argc, argv, "--help")) {
    Usage();
    return 0;
  }
  light::tools::RejectUnknownFlags(
      argc, argv,
      {"--pattern", "--pattern-edges", "--edges", "--pattern-file", "--algo",
       "--order", "--graph", "--format"},
      {"--all", "--no-symmetry", "--induced", "--no-cardinality",
       "--strict"});

  ToolConfig config;
  config.jsonl = false;
  if (const char* v = FlagValue(argc, argv, "--format")) {
    if (std::strcmp(v, "jsonl") == 0) {
      config.jsonl = true;
    } else if (std::strcmp(v, "text") != 0) {
      std::fprintf(stderr, "error: --format must be text or jsonl\n");
      return 1;
    }
  }
  config.strict = FlagSet(argc, argv, "--strict");
  config.cardinality = !FlagSet(argc, argv, "--no-cardinality");

  config.plan_options = PlanOptions::Light();
  if (const char* v = FlagValue(argc, argv, "--algo")) {
    if (std::strcmp(v, "light") == 0) {
      config.plan_options = PlanOptions::Light();
    } else if (std::strcmp(v, "lm") == 0) {
      config.plan_options = PlanOptions::Lm();
    } else if (std::strcmp(v, "msc") == 0) {
      config.plan_options = PlanOptions::Msc();
    } else if (std::strcmp(v, "se") == 0) {
      config.plan_options = PlanOptions::Se();
    } else {
      std::fprintf(stderr, "error: --algo must be light, lm, msc, or se\n");
      return 1;
    }
  }
  config.plan_options.symmetry_breaking = !FlagSet(argc, argv, "--no-symmetry");
  config.plan_options.induced = FlagSet(argc, argv, "--induced");

  if (const char* v = FlagValue(argc, argv, "--order")) {
    std::stringstream ss(v);
    std::string part;
    while (std::getline(ss, part, ',')) {
      config.pinned_order.push_back(std::atoi(part.c_str()));
    }
    if (config.pinned_order.empty()) {
      std::fprintf(stderr, "error: --order needs at least one vertex\n");
      return 1;
    }
  }

  // The data graph anchors the order optimizer and the cardinality rules; a
  // seeded Erdos-Renyi graph stands in when none is supplied (the lint
  // invariants are graph-independent, the estimates just need plausible
  // degree moments).
  Graph graph;
  if (const char* v = FlagValue(argc, argv, "--graph")) {
    if (Status s = LoadEdgeList(v, &graph); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
  } else {
    graph = ErdosRenyi(/*n=*/256, /*m=*/2048, /*seed=*/0x11917);
  }
  const GraphStats stats = ComputeGraphStats(graph);

  // Collect the patterns to lint.
  std::vector<std::pair<std::string, Pattern>> patterns;
  if (const char* v = FlagValue(argc, argv, "--pattern")) {
    Pattern p;
    if (Status s = FindPattern(v, &p); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    patterns.emplace_back(v, p);
  }
  const char* edges_arg = FlagValue(argc, argv, "--pattern-edges");
  // --edges is the unified short spelling shared with light_cli; the long
  // form stays as an alias so existing scripts keep working.
  if (edges_arg == nullptr) edges_arg = FlagValue(argc, argv, "--edges");
  if (const char* v = edges_arg) {
    Pattern p;
    if (Status s = ParsePattern(v, &p); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    patterns.emplace_back(v, p);
  }
  if (const char* v = FlagValue(argc, argv, "--pattern-file")) {
    std::ifstream in(v);
    if (!in) {
      std::fprintf(stderr, "error: cannot open pattern file %s\n", v);
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string text = buffer.str();
    // Trim trailing whitespace/newlines from the file body.
    while (!text.empty() &&
           (text.back() == '\n' || text.back() == '\r' ||
            text.back() == ' ' || text.back() == '\t')) {
      text.pop_back();
    }
    Pattern p;
    if (Status s = ParsePattern(text, &p); !s.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", v, s.ToString().c_str());
      return 1;
    }
    patterns.emplace_back(v, p);
  }
  if (patterns.empty() || FlagSet(argc, argv, "--all")) {
    for (const PatternEntry& entry : PatternCatalog()) {
      patterns.emplace_back(entry.name, entry.pattern);
    }
  }
  if (!config.pinned_order.empty() && patterns.size() > 1) {
    std::fprintf(stderr,
                 "error: --order applies to a single pattern, not %zu\n",
                 patterns.size());
    return 1;
  }

  for (const auto& [name, pattern] : patterns) {
    if (!pattern.IsConnected()) {
      std::fprintf(stderr, "error: pattern %s must be connected\n",
                   name.c_str());
      return 1;
    }
  }

  size_t failures = 0;
  size_t total = 0;
  for (const auto& [name, pattern] : patterns) {
    failures += LintOne(name, pattern, graph, stats, config);
    ++total;
  }
  if (!config.jsonl) {
    std::printf("plan_lint: patterns=%zu failures=%zu%s\n", total, failures,
                config.strict ? " (strict)" : "");
  }
  return failures > 0 ? 2 : 0;
}
