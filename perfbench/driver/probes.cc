#include "probes.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "analysis/plan_linter.h"
#include "common/rng.h"
#include "intersect/set_intersection.h"
#include "net/wire.h"
#include "inputs.h"

namespace perfbench {
namespace {

constexpr int kOpenReps = 9;
constexpr int kGraphReps = 5;
constexpr int kIntersectPairs = 20000;
constexpr int kIntersectReps = 5;
constexpr int kCodecRounds = 20000;

light::RunOptions OptionsFor(const ProbeQuery& q) {
  light::RunOptions opts;
  opts.threads = 1;
  opts.unique_subgraphs = q.unique;
  opts.plan_options.induced = q.induced;
  return opts;
}

template <typename F>
double TimeMs(F&& f) {
  const uint64_t t0 = NowNs();
  f();
  return Ms(NowNs() - t0);
}

}  // namespace

std::string RunLayerProbes(const std::vector<std::string>& store_paths,
                           light::GraphStore::Mode mode,
                           const std::vector<ProbeQuery>& queries,
                           SpanRecorder* spans) {
  Json out;
  std::vector<std::shared_ptr<const light::GraphStore>> stores(
      store_paths.size());

  // storage: GraphStore::Open.
  std::vector<double> open_ms;
  light::GraphStore::OpenOptions open_options;
  open_options.mode = mode;
  for (int rep = 0; rep < kOpenReps; ++rep) {
    double total = 0;
    for (size_t i = 0; i < store_paths.size(); ++i) {
      ScopedSpan span(spans, "storage.open");
      total += TimeMs([&] {
        if (!light::GraphStore::Open(store_paths[i], open_options, &stores[i])
                 .ok()) {
          std::fprintf(stderr, "error: cannot open %s\n",
                       store_paths[i].c_str());
          std::exit(1);
        }
      });
    }
    open_ms.push_back(total);
  }
  out.Arr("storage.open_ms", open_ms);

  // graph: stats (as Session/Run build them: with triangles) and bitmap.
  std::vector<double> stats_ms, bitmap_ms;
  std::vector<light::GraphStats> stats(stores.size());
  for (int rep = 0; rep < kGraphReps; ++rep) {
    double st = 0, bm = 0;
    for (size_t i = 0; i < stores.size(); ++i) {
      const light::GraphView view = stores[i]->view();
      {
        ScopedSpan span(spans, "graph.stats");
        st += TimeMs([&] {
          stats[i] = light::ComputeGraphStats(view, /*count_triangles=*/true);
        });
      }
      light::BitmapIndexOptions bopts;
      const light::PlanOptions defaults;
      bopts.min_degree =
          light::EffectiveBitmapThreshold(defaults, view.NumVertices());
      bopts.max_bytes = defaults.bitmap_max_bytes;
      ScopedSpan span(spans, "graph.bitmap_build");
      bm += TimeMs([&] {
        light::BitmapIndex index = light::BitmapIndex::Build(view, bopts);
        (void)index;
      });
    }
    stats_ms.push_back(st);
    bitmap_ms.push_back(bm);
  }
  out.Arr("graph.stats_ms", stats_ms);
  out.Arr("graph.bitmap_build_ms", bitmap_ms);

  // plan / analysis: BuildRunPlan and LintPlan per distinct shape.
  std::vector<double> build_ms, lint_ms;
  const light::Graph& graph = *stores[0]->graph();
  const light::analysis::LintOptions lint_options = [&] {
    light::analysis::LintOptions o;
    o.cardinality = light::analysis::AnalyticCardinalityFn(stats[0]);
    return o;
  }();
  for (const ProbeQuery& q : queries) {
    const light::RunOptions opts = OptionsFor(q).Normalized();
    light::ExecutionPlan plan;
    {
      ScopedSpan span(spans, "plan.build");
      build_ms.push_back(TimeMs([&] {
        plan = light::BuildRunPlan(graph, stats[0], q.pattern, opts);
      }));
    }
    ScopedSpan span(spans, "plan.lint");
    lint_ms.push_back(TimeMs([&] {
      light::analysis::LintReport report =
          light::analysis::LintPlan(q.pattern, plan, lint_options);
      (void)report;
    }));
  }
  out.Arr("plan.build_ms", build_ms);
  out.Arr("plan.lint_ms", lint_ms);

  // intersect: the public kernel over neighbour lists of adjacent pairs.
  {
    light::Rng rng(12345);
    std::vector<std::pair<light::VertexID, light::VertexID>> pairs;
    const light::Graph& g = *stores[0]->graph();
    while (static_cast<int>(pairs.size()) < kIntersectPairs) {
      const auto u =
          static_cast<light::VertexID>(rng.NextBounded(g.NumVertices()));
      if (g.Degree(u) == 0) continue;
      const auto nbrs = g.Neighbors(u);
      pairs.emplace_back(u, nbrs[rng.NextBounded(nbrs.size())]);
    }
    uint64_t elems = 0;
    for (auto [u, v] : pairs) elems += g.Degree(u) + g.Degree(v);
    const light::IntersectKernel kernel = light::BestAvailableKernel();
    std::vector<double> ns_per_elem;
    uint64_t sink = 0;
    for (int rep = 0; rep < kIntersectReps; ++rep) {
      ScopedSpan span(spans, "intersect.kernel");
      const double ms = TimeMs([&] {
        for (auto [u, v] : pairs) {
          sink += light::IntersectSortedCount(g.Neighbors(u), g.Neighbors(v),
                                              kernel);
        }
      });
      ns_per_elem.push_back(ms * 1e6 / static_cast<double>(elems));
    }
    out.Arr("intersect.ns_per_elem", ns_per_elem);
    out.Num("intersect.checksum", static_cast<double>(sink));
  }

  // net: Request/Response Encode + Decode, one round per request shape.
  {
    std::vector<light::net::Request> reqs;
    for (size_t i = 0; i < queries.size(); ++i) {
      light::net::Request r;
      r.id = i;
      r.edges = FlatEdges(queries[i].pattern);
      r.threads = 1;
      r.unique_subgraphs = queries[i].unique;
      r.induced = queries[i].induced;
      reqs.push_back(r);
    }
    light::net::Response resp;
    resp.matches = 123456789;
    resp.plan_ns = 1000;
    resp.execute_ns = 10000000;
    resp.total_ns = 10100000;
    std::vector<double> codec_us;
    for (int rep = 0; rep < 3; ++rep) {
      ScopedSpan span(spans, "net.codec");
      const double ms = TimeMs([&] {
        light::net::Request rq;
        light::net::Response rs;
        for (int i = 0; i < kCodecRounds; ++i) {
          const light::net::Request& r = reqs[static_cast<size_t>(i) % reqs.size()];
          if (!light::net::Request::Decode(r.Encode(), &rq).ok() ||
              !light::net::Response::Decode(resp.Encode(), &rs).ok()) {
            std::fprintf(stderr, "error: codec round trip failed\n");
            std::exit(1);
          }
        }
      });
      codec_us.push_back(ms * 1e3 / kCodecRounds);
    }
    out.Arr("net.codec_us", codec_us);
  }
  return out.Done();
}

std::string QueryRecordJson(const light::RunResult& result,
                            const light::obs::RunReport* report,
                            double wall_ms, int threads) {
  const light::obs::QueryStats& q = result.query_stats;
  Json j;
  j.Num("wall_ms", wall_ms);
  j.Num("threads", threads);
  j.Num("plan_ns", static_cast<double>(q.plan_ns));
  j.Num("plan_cache_hit", q.plan_cache_hit ? 1 : 0);
  j.Num("queue_wait_ns", static_cast<double>(q.queue_wait_ns));
  j.Num("execute_ns", static_cast<double>(q.execute_ns));
  j.Num("total_ns", static_cast<double>(q.total_ns));
  j.Num("steals", static_cast<double>(q.steals));
  j.Num("busy_ns", static_cast<double>(q.busy_ns));
  j.Num("park_ns", static_cast<double>(q.park_ns));
  if (report != nullptr) {
    const light::EngineStats& e = report->engine;
    uint64_t comp = 0, mat = 0;
    for (uint64_t c : e.comp_counts) comp += c;
    for (uint64_t m : e.mat_counts) mat += m;
    j.Num("partial_results", static_cast<double>(e.num_partial_results));
    j.Num("comp_calls", static_cast<double>(comp));
    j.Num("mat_calls", static_cast<double>(mat));
    j.Num("intersections", static_cast<double>(e.intersections.num_intersections));
    j.Num("galloping", static_cast<double>(e.intersections.num_galloping));
    j.Num("bitmap", static_cast<double>(e.intersections.num_bitmap_and +
                                        e.intersections.num_bitmap_probe));
    j.Num("load_imbalance", report->summary.load_imbalance);
    j.Num("report_steals", static_cast<double>(report->summary.total_steals));
  }
  return j.Done();
}

}  // namespace perfbench
