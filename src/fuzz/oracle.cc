#include "fuzz/fuzz.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "analysis/plan_linter.h"
#include "baselines/cfl_like.h"
#include "baselines/eh_like.h"
#include "engine/enumerator.h"
#include "graph/bitmap_index.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "join/bsp_engine.h"
#include "light.h"
#include "plan/plan.h"
#include "storage/graph_store.h"

namespace light::fuzz {
namespace {

// Serial reference run over an arbitrary prebuilt plan.
EngineCount RunSerial(const std::string& name, const Graph& graph,
                      const ExecutionPlan& plan, const FuzzCase& c) {
  EngineCount e;
  e.name = name;
  Enumerator enumerator(graph, plan, c.Labeled() ? &c.labels : nullptr);
  e.count = enumerator.Count();
  if (enumerator.stats().timed_out) {
    e.skipped = true;
    e.note = "timed out";
  }
  return e;
}

EngineCount RunBsp(const std::string& name, const Graph& graph,
                   const FuzzCase& c) {
  EngineCount e;
  e.name = name;
  if (c.Labeled()) {
    e.skipped = true;
    e.note = "labeled (BSP engines are unlabeled-only)";
    return e;
  }
  BspOptions options;
  options.kernel = c.kernel;
  options.symmetry_breaking = c.symmetry_breaking;
  const BspResult result = name == "eh"   ? RunEhLike(graph, c.pattern, options)
                           : name == "seed"
                               ? RunSeedLike(graph, c.pattern, options)
                               : RunCrystalLike(graph, c.pattern, options);
  if (!result.status.ok()) {
    e.skipped = true;
    e.note = result.status.ToString();
    return e;
  }
  e.count = result.num_matches;
  return e;
}

}  // namespace

std::string OracleOutcome::Describe() const {
  std::string s;
  for (const EngineCount& e : engines) {
    s += "  " + e.name + ": ";
    if (e.skipped) {
      s += "skipped (" + e.note + ")";
    } else {
      s += std::to_string(e.count);
    }
    s += '\n';
  }
  return s;
}

OracleOutcome RunOracles(const FuzzCase& c) {
  const Graph graph = c.BuildGraph();
  const GraphStats stats = ComputeGraphStats(graph);

  PlanOptions light_options = PlanOptions::Light();
  light_options.kernel = c.kernel;
  light_options.symmetry_breaking = c.symmetry_breaking;
  const ExecutionPlan light_plan =
      BuildPlan(c.pattern, graph, stats, light_options);

  // The SE variant exercises the eager-materialization / no-set-cover plan
  // path with the same engine, catching planner (not engine) divergences.
  PlanOptions se_options = PlanOptions::Se();
  se_options.kernel = c.kernel;
  se_options.symmetry_breaking = c.symmetry_breaking;
  const ExecutionPlan se_plan = BuildPlan(c.pattern, graph, stats, se_options);

  OracleOutcome outcome;
  outcome.comp_windows =
      light_plan.HasCompWindows() || se_plan.HasCompWindows();
  outcome.twin_closure = light_plan.TwinClosureB() >= 0;
  outcome.twin_leaf = light_plan.HasTwinLeaf();

  // Static lint soak: every plan the oracles execute must verify clean
  // (analysis/plan_linter.h). A finding here is a planner bug or a linter
  // false positive — either way the sweep must fail loudly.
  {
    analysis::LintOptions lint_options;
    lint_options.cardinality = analysis::AnalyticCardinalityFn(stats);
    const auto lint_one = [&](const char* which, const ExecutionPlan& plan) {
      const analysis::LintReport report =
          analysis::LintPlan(c.pattern, plan, lint_options);
      const uint64_t violations = report.errors() + report.warnings();
      if (violations > 0) {
        outcome.lint_violations += violations;
        outcome.lint_text += std::string(which) + ":\n" + report.ToString();
      }
    };
    lint_one("light_plan", light_plan);
    lint_one("se_plan", se_plan);
  }

  // Pivot: the serial LIGHT engine. Every other engine must agree with it.
  outcome.engines.push_back(RunSerial("serial_light", graph, light_plan, c));
  outcome.engines.push_back(RunSerial("serial_se", graph, se_plan, c));

  // Inclusion–exclusion leg: when the pattern decomposes (independent
  // counted tail + connected kernel), light::Run with count_strategy=kIep
  // must reproduce the pivot count through an entirely different evaluation
  // (signed kernel-embedding sums instead of full enumeration). lint_plan
  // is forced on so every counted-tail term plan passes the linter.
  if (const IepDecomposition dec = BuildIepDecomposition(c.pattern);
      dec.valid()) {
    // Decomposition-level proof first: partition/independence/connectivity
    // plus the exactness of the signed term expansion
    // (analysis::LintIepDecomposition). A violation here is a planner bug
    // even when the counts happen to agree.
    {
      const analysis::LintReport report =
          analysis::LintIepDecomposition(c.pattern, dec);
      const uint64_t violations = report.errors() + report.warnings();
      if (violations > 0) {
        outcome.lint_violations += violations;
        outcome.lint_text += "iep_decomposition:\n" + report.ToString();
      }
    }
    RunOptions iep_options;
    iep_options.threads = 1;
    iep_options.unique_subgraphs = c.symmetry_breaking;
    iep_options.data_labels = c.Labeled() ? &c.labels : nullptr;
    iep_options.lint_plan = true;
    iep_options.plan_options.kernel = c.kernel;
    iep_options.plan_options.auto_kernel = false;
    iep_options.plan_options.bitmap_min_degree = c.bitmap_min_degree;
    iep_options.plan_options.count_strategy = CountStrategy::kIep;
    // The same count with the terms as pool parts of one query (a hostile
    // negative thread count means "whole pool" here), and twice through a
    // caching session: the repeat serves every term plan from the cache.
    RunOptions parallel_options = iep_options;
    parallel_options.threads = std::max(0, c.parallel.num_threads);
    SessionOptions session_options;
    session_options.threads = 2;
    session_options.plan_options.bitmap_min_degree = c.bitmap_min_degree;
    Session session(graph, session_options);
    const std::pair<const char*, RunResult> legs[] = {
        {"iep", Run(graph, c.pattern, iep_options)},
        {"iep_parallel", Run(graph, c.pattern, parallel_options)},
        {"iep_session", session.RunSync(c.pattern, parallel_options)},
        {"iep_session_cached", session.RunSync(c.pattern, parallel_options)},
    };
    for (const auto& [name, result] : legs) {
      EngineCount e;
      e.name = name;
      if (result.ok()) {
        e.count = result.num_matches;
      } else {
        e.count = std::numeric_limits<uint64_t>::max();
        e.note = result.error;
      }
      outcome.engines.push_back(std::move(e));
    }
    outcome.iep_checked = true;
  }

  {
    EngineCount e;
    e.name = "parallel";
    const ParallelResult result = ParallelCount(
        graph, light_plan, c.parallel, c.Labeled() ? &c.labels : nullptr);
    e.count = result.num_matches;
    if (result.timed_out) {
      e.skipped = true;
      e.note = "timed out";
    }
    outcome.engines.push_back(std::move(e));
  }

  // Hybrid bitmap/array cross-checks: the identical plan re-run with a
  // bitmap index attached (serial and parallel) must reproduce the
  // pure-array pivot exactly — this is the differential coverage for the
  // bitmap kernels and the cost-model routing.
  const bool bitmap_enabled = c.bitmap_min_degree != kBitmapDegreeNever;
  BitmapIndex bitmap_index;
  if (bitmap_enabled) {
    BitmapIndexOptions bitmap_options;
    bitmap_options.min_degree = c.bitmap_min_degree;
    bitmap_index = BitmapIndex::Build(graph, bitmap_options);
  }
  {
    EngineCount e;
    e.name = "serial_bitmap";
    if (!bitmap_enabled) {
      e.skipped = true;
      e.note = "bitmap disabled (threshold=never)";
    } else {
      Enumerator enumerator(graph, light_plan,
                            c.Labeled() ? &c.labels : nullptr);
      enumerator.SetBitmapIndex(&bitmap_index);
      e.count = enumerator.Count();
      outcome.bitmap_routed =
          enumerator.stats().intersections.num_bitmap_and +
          enumerator.stats().intersections.num_bitmap_probe;
      if (enumerator.stats().timed_out) {
        e.skipped = true;
        e.note = "timed out";
      }
    }
    outcome.engines.push_back(std::move(e));
  }
  {
    EngineCount e;
    e.name = "parallel_bitmap";
    if (!bitmap_enabled) {
      e.skipped = true;
      e.note = "bitmap disabled (threshold=never)";
    } else {
      const ParallelResult result =
          ParallelCount(graph, light_plan, c.parallel,
                        c.Labeled() ? &c.labels : nullptr, &bitmap_index);
      e.count = result.num_matches;
      if (result.timed_out) {
        e.skipped = true;
        e.note = "timed out";
      }
    }
    outcome.engines.push_back(std::move(e));
  }

  // Storage-engine parity leg: the case graph written as an .lcsr2 snapshot
  // and reopened as an mmap store must reproduce the pivot count
  // bit-for-bit with the same plan — the GraphStore contract that heap and
  // mmap are observationally identical.
  {
    const std::string store_file =
        "/tmp/light_fuzz_store_" +
        std::to_string(static_cast<unsigned long>(::getpid())) + "_" +
        std::to_string(c.seed) + ".lcsr2";
    const Status saved =
        SaveStoreFile(graph, store_file, c.Labeled() ? &c.labels : nullptr);
    if (saved.ok()) {
      EngineCount e;
      e.name = "store_mmap";
      GraphStore::OpenOptions store_options;
      store_options.mode = GraphStore::Mode::kMmap;
      std::shared_ptr<const GraphStore> store;
      if (Status s = GraphStore::Open(store_file, store_options, &store);
          !s.ok()) {
        e.count = std::numeric_limits<uint64_t>::max();
        e.note = s.ToString();
      } else {
        Enumerator enumerator(store->view(), light_plan,
                              c.Labeled() ? &c.labels : nullptr);
        e.count = enumerator.Count();
        if (enumerator.stats().timed_out) {
          e.skipped = true;
          e.note = "timed out";
        }
      }
      outcome.engines.push_back(std::move(e));
      outcome.store_checked = true;
    }
    std::remove(store_file.c_str());
  }

  // End-to-end facade check: light::Run with the case's config (serial, no
  // time limit — hostile time limits are the parallel oracle's job). A
  // validation failure on a generated config is itself a bug, surfaced as a
  // guaranteed-divergent sentinel count.
  {
    EngineCount e;
    e.name = "facade";
    RunOptions run_options;
    run_options.threads = 1;
    run_options.unique_subgraphs = c.symmetry_breaking;
    run_options.data_labels = c.Labeled() ? &c.labels : nullptr;
    run_options.plan_options.kernel = c.kernel;
    run_options.plan_options.auto_kernel = false;
    run_options.plan_options.bitmap_min_degree = c.bitmap_min_degree;
    const RunResult result = Run(graph, c.pattern, run_options);
    if (result.ok()) {
      e.count = result.num_matches;
    } else {
      e.count = std::numeric_limits<uint64_t>::max();
      e.note = result.error;
    }
    outcome.engines.push_back(std::move(e));
  }

  // Session oracle: the same case submitted through a shared multi-query
  // light::Session, interleaved with a second pattern so concurrent queries
  // actually share the pool and the plan cache. The case pattern runs twice
  // (the repeat exercises the cache-hit path); the interleaved triangle is
  // checked against a direct one-shot Run since it is a different pattern
  // and not comparable to the pivot.
  {
    SessionOptions session_options;
    session_options.threads = 2;
    session_options.plan_options.bitmap_min_degree = c.bitmap_min_degree;
    Session session(graph, session_options);

    RunOptions query;
    query.unique_subgraphs = c.symmetry_breaking;
    query.data_labels = c.Labeled() ? &c.labels : nullptr;
    query.plan_options.kernel = c.kernel;
    query.plan_options.auto_kernel = false;
    // Seed-derived priority classes: results must be identical no matter
    // which admission order the scheduler picks, so priorities only change
    // interleaving, never counts.
    query.priority = static_cast<int>((c.seed >> 11) % 7) - 3;

    Pattern triangle;
    static_cast<void>(FindPattern("triangle", &triangle));
    RunOptions tri_query;
    tri_query.plan_options.kernel = c.kernel;
    tri_query.plan_options.auto_kernel = false;
    tri_query.priority = static_cast<int>((c.seed >> 23) % 7) - 3;

    Session::Ticket t1 = session.Submit(c.pattern, query);
    Session::Ticket t2 = session.Submit(triangle, tri_query);
    Session::Ticket t3 = session.Submit(c.pattern, query);
    const RunResult r1 = t1.Wait();
    const RunResult r2 = t2.Wait();
    const RunResult r3 = t3.Wait();

    const auto to_engine = [](const char* name, const RunResult& r) {
      EngineCount e;
      e.name = name;
      if (r.ok()) {
        e.count = r.num_matches;
      } else {
        e.count = std::numeric_limits<uint64_t>::max();
        e.note = r.error;
      }
      return e;
    };
    outcome.engines.push_back(to_engine("session", r1));
    outcome.engines.push_back(to_engine("session_repeat", r3));
    outcome.session_latency_ns = r1.query_stats.total_ns;

    RunOptions tri_direct = tri_query;
    tri_direct.threads = 1;
    tri_direct.plan_options.bitmap_min_degree = c.bitmap_min_degree;
    const RunResult tri_expected = Run(graph, triangle, tri_direct);
    EngineCount interleaved;
    interleaved.name = "session_interleaved";
    interleaved.skipped = true;  // different pattern: not pivot-comparable
    if (!r2.ok() || !tri_expected.ok() ||
        r2.num_matches != tri_expected.num_matches) {
      outcome.divergent = true;
      interleaved.note =
          "triangle via session = " + std::to_string(r2.num_matches) +
          " vs direct Run = " + std::to_string(tri_expected.num_matches) +
          (r2.ok() ? "" : " (" + r2.error + ")") +
          (tri_expected.ok() ? "" : " (" + tri_expected.error + ")");
    } else {
      interleaved.note =
          "triangle agrees (" + std::to_string(r2.num_matches) + ")";
    }
    outcome.engines.push_back(std::move(interleaved));

    // Random tiny-deadline submission (1us..1ms drawn from the seed): the
    // only legal outcomes are a structured deadline_exceeded error or the
    // query beating the deadline with a count identical to the first
    // session run. A partial count reported as ok, or a deadline kill
    // without the stable error prefix, is a serving-layer bug.
    RunOptions deadline_query = query;
    deadline_query.time_limit_seconds =
        1e-6 * static_cast<double>(1 + (c.seed >> 17) % 1000);
    deadline_query.priority = static_cast<int>((c.seed >> 31) % 7) - 3;
    const RunResult r4 = session.Submit(c.pattern, deadline_query).Wait();
    EngineCount dl;
    dl.name = "session_deadline";
    dl.skipped = true;  // not pivot-comparable when the deadline fires
    if (r4.outcome == QueryOutcome::kDeadlineExceeded) {
      outcome.deadline_fired = true;
      if (r4.error.rfind(kDeadlineExceededPrefix, 0) != 0 || !r4.timed_out) {
        outcome.divergent = true;
        dl.note = "deadline kill without structured error: \"" + r4.error +
                  "\" timed_out=" + (r4.timed_out ? "1" : "0");
      } else {
        dl.note = "deadline fired (partial count " +
                  std::to_string(r4.num_matches) + ")";
      }
    } else if (r4.ok() && !r4.timed_out) {
      if (r1.ok() && r4.num_matches != r1.num_matches) {
        outcome.divergent = true;
        dl.note = "beat the deadline but count " +
                  std::to_string(r4.num_matches) + " != session count " +
                  std::to_string(r1.num_matches);
      } else {
        dl.note = "beat the deadline (count " +
                  std::to_string(r4.num_matches) + ")";
      }
    } else {
      outcome.divergent = true;
      dl.note = "unexpected outcome " +
                std::to_string(static_cast<int>(r4.outcome)) + ": " + r4.error;
    }
    outcome.engines.push_back(std::move(dl));
    outcome.session_checked = true;
  }

  outcome.engines.push_back(RunSerial(
      "cfl", graph, BuildCflLikePlan(c.pattern, c.symmetry_breaking), c));
  outcome.engines.push_back(RunBsp("eh", graph, c));
  outcome.engines.push_back(RunBsp("seed", graph, c));
  outcome.engines.push_back(RunBsp("crystal", graph, c));

  const EngineCount& pivot = outcome.engines.front();
  if (!pivot.skipped) {
    for (const EngineCount& e : outcome.engines) {
      if (!e.skipped && e.count != pivot.count) {
        outcome.divergent = true;
        break;
      }
    }
  }
  return outcome;
}

}  // namespace light::fuzz
