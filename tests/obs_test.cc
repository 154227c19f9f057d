// Tests for the observability layer (src/obs): sharded counter/histogram
// merge correctness under concurrent increments, Chrome trace-event JSON
// schema validity, and RunReport round-trip on a real engine run.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "gen/generators.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "parallel/parallel_enumerator.h"
#include "pattern/catalog.h"
#include "plan/plan.h"

namespace light {
namespace {

TEST(JsonTest, WriterParserRoundTrip) {
  obs::JsonWriter w;
  w.BeginObject();
  w.KV("name", "a \"quoted\"\nstring");
  w.KV("count", uint64_t{18446744073709551615ull});
  w.KV("ratio", 0.25);
  w.KV("flag", true);
  w.Key("list");
  w.BeginArray();
  w.Int(1);
  w.Int(-2);
  w.Null();
  w.EndArray();
  w.Key("nested");
  w.BeginObject();
  w.KV("x", 7);
  w.EndObject();
  w.EndObject();

  obs::JsonValue v;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(w.str(), &v, &error)) << error << "\n" << w.str();
  EXPECT_EQ(v["name"].string_value, "a \"quoted\"\nstring");
  EXPECT_EQ(v["count"].AsUint(), 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(v["ratio"].AsDouble(), 0.25);
  EXPECT_TRUE(v["flag"].bool_value);
  ASSERT_EQ(v["list"].array.size(), 3u);
  EXPECT_EQ(v["list"].at(1).int_value, -2);
  EXPECT_EQ(v["list"].at(2).type, obs::JsonValue::Type::kNull);
  EXPECT_EQ(v["nested"]["x"].AsUint(), 7u);
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  obs::JsonValue v;
  EXPECT_FALSE(obs::ParseJson("{\"a\": }", &v));
  EXPECT_FALSE(obs::ParseJson("[1, 2", &v));
  EXPECT_FALSE(obs::ParseJson("{\"a\": 1} trailing", &v));
  EXPECT_FALSE(obs::ParseJson("", &v));
}

TEST(MetricsTest, CounterMergesConcurrentIncrements) {
  obs::Counter counter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Inc();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(MetricsTest, HistogramLogLinearBucketBoundaries) {
  using H = obs::Histogram;
  // Values below kSubBuckets occupy exact width-1 buckets.
  for (uint64_t v = 0; v < H::kSubBuckets; ++v) {
    EXPECT_EQ(H::BucketOf(v), static_cast<size_t>(v));
    EXPECT_EQ(H::BucketLow(v), v);
    EXPECT_EQ(H::BucketHigh(v), v + 1);
  }
  // [32, 64) is the first log group; 32 sub-buckets keep width 1 (exact).
  EXPECT_EQ(H::BucketOf(32), 32u);
  EXPECT_EQ(H::BucketOf(63), 63u);
  // [64, 128): width-2 sub-buckets.
  EXPECT_EQ(H::BucketOf(64), 64u);
  EXPECT_EQ(H::BucketOf(65), 64u);
  EXPECT_EQ(H::BucketOf(127), 95u);
  EXPECT_EQ(H::BucketLow(95), 126u);
  EXPECT_EQ(H::BucketHigh(95), 128u);
  // [1024, 2048): width-32 sub-buckets.
  EXPECT_EQ(H::BucketOf(1024), 192u);
  EXPECT_EQ(H::BucketOf(1055), 192u);
  EXPECT_EQ(H::BucketOf(1056), 193u);
  EXPECT_EQ(H::BucketLow(192), 1024u);
  EXPECT_EQ(H::BucketHigh(192), 1056u);
  // The top of the range still maps inside the table.
  EXPECT_EQ(H::BucketOf(~uint64_t{0}), H::kBuckets - 1);

  // Buckets tile the uint64 range with no gaps or overlaps, BucketOf is
  // the inverse of the bounds, and the relative width stays <= 1/32 (the
  // midpoint-quantile accuracy bound).
  for (size_t b = 0; b + 1 < H::kBuckets; ++b) {
    ASSERT_EQ(H::BucketHigh(b), H::BucketLow(b + 1)) << b;
    ASSERT_EQ(H::BucketOf(H::BucketLow(b)), b) << b;
    ASSERT_EQ(H::BucketOf(H::BucketHigh(b) - 1), b) << b;
    if (b >= H::kSubBuckets) {
      ASSERT_LE((H::BucketHigh(b) - H::BucketLow(b)) * H::kSubBuckets,
                H::BucketLow(b))
          << b;
    }
  }
}

TEST(MetricsTest, HistogramConcurrentObserveKeepsEverySample) {
  obs::Histogram histogram("test.hist");
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (uint64_t v = 0; v < kPerThread; ++v) histogram.Observe(v);
    });
  }
  for (std::thread& thread : threads) thread.join();
  const obs::Histogram::Snapshot snap = histogram.Snap();
  // No sample is lost under concurrency: total count and sum are exact.
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_EQ(snap.sum, kThreads * (999u * 1000u / 2));
  // Values below 32 land in exact singleton buckets.
  for (size_t v = 0; v < obs::Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(snap.buckets[v], static_cast<uint64_t>(kThreads)) << v;
  }
  // [512, 528) is one width-16 bucket in the [512, 1024) group.
  ASSERT_EQ(obs::Histogram::BucketOf(512), obs::Histogram::BucketOf(527));
  EXPECT_EQ(snap.buckets[obs::Histogram::BucketOf(512)], kThreads * 16u);
  // The per-bucket tallies account for every recorded sample.
  uint64_t total = 0;
  for (const uint64_t n : snap.buckets) total += n;
  EXPECT_EQ(total, snap.count);

  histogram.Reset();
  EXPECT_EQ(histogram.Snap().count, 0u);
}

TEST(MetricsTest, HistogramQuantilesEmptySingleAndSaturated) {
  obs::Histogram histogram("test.quantiles");
  // Empty: every quantile and the max read 0.
  EXPECT_EQ(histogram.Snap().P50(), 0u);
  EXPECT_EQ(histogram.Snap().Quantile(1.0), 0u);
  EXPECT_EQ(histogram.Snap().Max(), 0u);

  // Single sample below kSubBuckets: exact at every quantile.
  histogram.Observe(7);
  const obs::Histogram::Snapshot one = histogram.Snap();
  EXPECT_EQ(one.P50(), 7u);
  EXPECT_EQ(one.P999(), 7u);
  EXPECT_EQ(one.Max(), 7u);
  EXPECT_DOUBLE_EQ(one.Mean(), 7.0);

  // Uniform 1..1000: exact below 32, within the ~3.2% bucket width above.
  histogram.Reset();
  for (uint64_t v = 1; v <= 1000; ++v) histogram.Observe(v);
  const obs::Histogram::Snapshot uniform = histogram.Snap();
  EXPECT_EQ(uniform.Quantile(0.01), 10u);
  EXPECT_NEAR(static_cast<double>(uniform.P50()), 500.0, 500.0 * 0.032);
  EXPECT_NEAR(static_cast<double>(uniform.P99()), 990.0, 990.0 * 0.032);
  EXPECT_NEAR(static_cast<double>(uniform.Max()), 1000.0, 1000.0 * 0.032);

  // Saturated: the top bucket (which has no representable upper bound)
  // still answers with its lower bound instead of overflowing.
  histogram.Reset();
  histogram.Observe(~uint64_t{0});
  const obs::Histogram::Snapshot top = histogram.Snap();
  const uint64_t top_low =
      obs::Histogram::BucketLow(obs::Histogram::kBuckets - 1);
  EXPECT_EQ(top.Quantile(1.0), top_low);
  EXPECT_EQ(top.P50(), top_low);
  EXPECT_EQ(top.Max(), top_low);
}

TEST(MetricsTest, HistogramMergeIsAssociative) {
  obs::Histogram ha("test.merge.a");
  obs::Histogram hb("test.merge.b");
  obs::Histogram hc("test.merge.c");
  for (uint64_t v = 0; v < 100; ++v) ha.Observe(v);
  for (uint64_t v = 50; v < 5000; v += 7) hb.Observe(v);
  hc.Observe(0);
  hc.Observe(~uint64_t{0});
  const obs::Histogram::Snapshot a = ha.Snap();
  const obs::Histogram::Snapshot b = hb.Snap();
  const obs::Histogram::Snapshot c = hc.Snap();

  obs::Histogram::Snapshot left = a;  // (a + b) + c
  left.Merge(b);
  left.Merge(c);
  obs::Histogram::Snapshot right = b;  // a + (b + c)
  right.Merge(c);
  obs::Histogram::Snapshot a_first = a;
  a_first.Merge(right);

  EXPECT_EQ(left.count, a.count + b.count + c.count);
  EXPECT_EQ(left.count, a_first.count);
  EXPECT_EQ(left.sum, a_first.sum);
  EXPECT_EQ(left.buckets, a_first.buckets);
  EXPECT_EQ(left.P50(), a_first.P50());
  EXPECT_EQ(left.P999(), a_first.P999());
}

TEST(MetricsTest, RegistryEpochSnapshotDelta) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("epoch.counter");
  obs::Histogram* histogram = registry.GetHistogram("epoch.hist");
  counter->Inc(10);
  histogram->Observe(5);
  const obs::MetricsSnapshot before = registry.Snap();

  counter->Inc(7);
  histogram->Observe(5);
  histogram->Observe(100);
  registry.GetCounter("epoch.late")->Inc(3);

  const obs::MetricsSnapshot delta = registry.Snap().DeltaSince(before);
  EXPECT_EQ(delta.CounterValue("epoch.counter"), 7u);
  // Metrics registered after the baseline keep their full value.
  EXPECT_EQ(delta.CounterValue("epoch.late"), 3u);
  EXPECT_EQ(delta.CounterValue("epoch.absent"), 0u);
  const obs::Histogram::Snapshot* hist_delta =
      delta.FindHistogram("epoch.hist");
  ASSERT_NE(hist_delta, nullptr);
  EXPECT_EQ(hist_delta->count, 2u);
  EXPECT_EQ(hist_delta->sum, 105u);
  EXPECT_EQ(hist_delta->buckets[5], 1u);
  EXPECT_EQ(hist_delta->buckets[obs::Histogram::BucketOf(100)], 1u);
  EXPECT_EQ(delta.FindHistogram("epoch.absent"), nullptr);
}

TEST(MetricsTest, RegistryReturnsStablePointers) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("alpha");
  obs::Counter* b = registry.GetCounter("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(registry.GetCounter("alpha"), a);
  a->Inc(5);
  EXPECT_EQ(registry.FindCounter("alpha")->Value(), 5u);
  EXPECT_EQ(registry.FindCounter("gamma"), nullptr);
  registry.ResetAll();
  EXPECT_EQ(a->Value(), 0u);
}

TEST(TraceTest, ChromeJsonSchemaIsValid) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Start(/*events_per_thread=*/256);
  {
    obs::TraceSpan outer("outer", "v", 42);
    obs::TraceSpan inner("inner");
    obs::TraceInstant("marker", "begin", 7);
  }
  std::thread other([] {
    obs::TraceSpan span("other_thread");
  });
  other.join();
  tracer.Stop();

  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(tracer.ToChromeJson(), &doc, &error)) << error;
  const obs::JsonValue& events = doc["traceEvents"];
  ASSERT_TRUE(events.is_array());
  ASSERT_GE(events.array.size(), 4u);
  std::vector<std::string> names;
  std::vector<uint64_t> tids;
  for (const obs::JsonValue& e : events.array) {
    // Chrome trace-event required fields.
    EXPECT_FALSE(e["name"].string_value.empty());
    EXPECT_TRUE(e["ph"].string_value == "X" || e["ph"].string_value == "i" ||
                e["ph"].string_value == "M")
        << e["ph"].string_value;
    EXPECT_TRUE(e["pid"].is_number());
    if (e["ph"].string_value == "M") continue;  // process_name metadata
    EXPECT_TRUE(e["ts"].is_number());
    // Every event here is process-wide (no query id), so all land in lane 1.
    EXPECT_EQ(e["pid"].AsUint(), 1u);
    EXPECT_TRUE(e["tid"].is_number());
    if (e["ph"].string_value == "X") {
      EXPECT_TRUE(e["dur"].is_number());
    }
    names.push_back(e["name"].string_value);
    tids.push_back(e["tid"].AsUint());
  }
  for (const char* expected : {"outer", "inner", "marker", "other_thread"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  // The spawned thread must land on its own tid.
  EXPECT_GT(std::set<uint64_t>(tids.begin(), tids.end()).size(), 1u);

  // Nesting: "inner" closes before "outer" and lies within it.
  const auto find_event = [&](const char* name) -> const obs::JsonValue& {
    for (const obs::JsonValue& e : events.array) {
      if (e["name"].string_value == name) return e;
    }
    static const obs::JsonValue kNull;
    return kNull;
  };
  const obs::JsonValue& outer = find_event("outer");
  const obs::JsonValue& inner = find_event("inner");
  EXPECT_LE(outer["ts"].AsDouble(), inner["ts"].AsDouble());
  EXPECT_GE(outer["ts"].AsDouble() + outer["dur"].AsDouble(),
            inner["ts"].AsDouble() + inner["dur"].AsDouble());
  EXPECT_EQ(outer["args"]["v"].AsUint(), 42u);
}

TEST(TraceTest, QueryScopedEventsGetOwnProcessLanes) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Start(/*events_per_thread=*/64);
  tracer.EmitSpan("range", tracer.NowNs(), 10, nullptr, 0, /*qid=*/7);
  tracer.EmitSpan("range", tracer.NowNs(), 10, nullptr, 0, /*qid=*/9);
  obs::TraceInstant("admit", nullptr, 0, /*qid=*/9);
  tracer.EmitSpan("pool", tracer.NowNs(), 5);  // process-wide (qid 0)
  tracer.Stop();

  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(tracer.ToChromeJson(), &doc, &error)) << error;

  // Lane naming: one process_name metadata record per lane, pid = qid + 1
  // with pid 1 reserved for process-wide events.
  std::map<uint64_t, std::string> lane_names;
  for (const obs::JsonValue& e : doc["traceEvents"].array) {
    if (e["ph"].string_value == "M") {
      EXPECT_EQ(e["name"].string_value, "process_name");
      lane_names[e["pid"].AsUint()] = e["args"]["name"].string_value;
    }
  }
  ASSERT_EQ(lane_names.size(), 3u);
  EXPECT_EQ(lane_names[1], "light");
  EXPECT_EQ(lane_names[8], "query 7");
  EXPECT_EQ(lane_names[10], "query 9");

  // Event placement: each event renders in its query's lane.
  for (const obs::JsonValue& e : doc["traceEvents"].array) {
    if (e["ph"].string_value == "M") continue;
    const std::string& name = e["name"].string_value;
    if (name == "pool") {
      EXPECT_EQ(e["pid"].AsUint(), 1u);
    } else if (name == "admit") {
      EXPECT_EQ(e["pid"].AsUint(), 10u);
    } else {
      ASSERT_EQ(name, "range");
      EXPECT_TRUE(e["pid"].AsUint() == 8u || e["pid"].AsUint() == 10u);
    }
  }
}

TEST(TraceTest, RingBufferKeepsMostRecentEvents) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Start(/*events_per_thread=*/16);
  for (int i = 0; i < 100; ++i) {
    tracer.EmitSpan("e", static_cast<uint64_t>(i), 1, "i", i);
  }
  tracer.Stop();
  const std::vector<obs::TraceEvent> events = tracer.Collect();
  ASSERT_EQ(events.size(), 16u);
  EXPECT_EQ(tracer.DroppedEvents(), 84u);
  // The retained window is the newest 16, in emission order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, static_cast<int64_t>(84 + i));
  }
}

TEST(EngineStatsTest, AddToleratesMismatchedVectorSizes) {
  // Regression: merging stats from enumerators built against patterns of
  // different sizes (or default-constructed accumulators) must not rely on
  // callers pre-sizing comp/mat vectors.
  EngineStats small;
  small.comp_counts = {1, 2};
  small.mat_counts = {3};
  EngineStats big;
  big.comp_counts = {10, 20, 30, 40};
  big.mat_counts = {50, 60, 70};

  EngineStats merged;  // empty vectors
  merged.Add(small);
  merged.Add(big);
  ASSERT_EQ(merged.comp_counts.size(), 4u);
  EXPECT_EQ(merged.comp_counts[0], 11u);
  EXPECT_EQ(merged.comp_counts[1], 22u);
  EXPECT_EQ(merged.comp_counts[3], 40u);
  ASSERT_EQ(merged.mat_counts.size(), 3u);
  EXPECT_EQ(merged.mat_counts[0], 53u);
  EXPECT_EQ(merged.mat_counts[2], 70u);

  // Adding a smaller vector into a larger accumulator keeps the tail.
  big.Add(small);
  ASSERT_EQ(big.comp_counts.size(), 4u);
  EXPECT_EQ(big.comp_counts[0], 11u);
  EXPECT_EQ(big.comp_counts[3], 40u);
}

TEST(RunReportTest, RoundTripOnTriangleRun) {
  const Graph g = RelabelByDegree(BarabasiAlbert(1500, 6, /*seed=*/7));
  Pattern triangle;
  ASSERT_TRUE(FindPattern("triangle", &triangle).ok());
  const ExecutionPlan plan =
      BuildPlan(triangle, g, ComputeGraphStats(g), PlanOptions::Light());

  obs::SetMetricsEnabled(true);
  obs::DefaultRegistry().ResetAll();
  ParallelOptions options;
  options.num_threads = 3;
  const ParallelResult result = ParallelCount(g, plan, options);
  obs::SetMetricsEnabled(false);
  ASSERT_GT(result.num_matches, 0u);

  obs::RunReport report;
  report.tool = "obs_test";
  report.dataset = "ba1500";
  report.pattern = "triangle";
  report.algorithm = "light";
  report.graph_vertices = g.NumVertices();
  report.graph_edges = g.NumEdges();
  obs::FillFromEngine(plan, result.stats, &report);
  report.workers = result.workers;
  report.summary = obs::SummarizeWorkers(result.workers);
  obs::SnapshotCounters(&report);

  const std::string json = report.ToJson();
  obs::RunReport parsed;
  ASSERT_TRUE(obs::RunReport::FromJson(json, &parsed).ok()) << json;

  EXPECT_EQ(parsed.tool, report.tool);
  EXPECT_EQ(parsed.dataset, report.dataset);
  EXPECT_EQ(parsed.pattern, report.pattern);
  EXPECT_EQ(parsed.kernel, report.kernel);
  EXPECT_EQ(parsed.plan_order, report.plan_order);
  EXPECT_EQ(parsed.plan_sigma, report.plan_sigma);
  EXPECT_EQ(parsed.num_matches, result.num_matches);
  EXPECT_EQ(parsed.graph_vertices, g.NumVertices());
  EXPECT_EQ(parsed.engine.comp_counts, report.engine.comp_counts);
  EXPECT_EQ(parsed.engine.mat_counts, report.engine.mat_counts);
  EXPECT_EQ(parsed.engine.intersections.num_intersections,
            report.engine.intersections.num_intersections);
  EXPECT_EQ(parsed.engine.intersections.num_binary_search,
            report.engine.intersections.num_binary_search);
  // Elements scanned ride along as an additive field.
  EXPECT_GT(report.engine.intersections.elements, 0u);
  EXPECT_EQ(parsed.engine.intersections.elements,
            report.engine.intersections.elements);
  EXPECT_EQ(parsed.summary.threads_configured, 3);
  EXPECT_EQ(parsed.summary.threads_used, report.summary.threads_used);
  ASSERT_EQ(parsed.workers.size(), report.workers.size());
  for (size_t i = 0; i < parsed.workers.size(); ++i) {
    EXPECT_EQ(parsed.workers[i].roots_processed,
              report.workers[i].roots_processed);
    EXPECT_EQ(parsed.workers[i].steals_initiated,
              report.workers[i].steals_initiated);
    EXPECT_EQ(parsed.workers[i].idle_ns, report.workers[i].idle_ns);
    EXPECT_EQ(parsed.workers[i].matches, report.workers[i].matches);
  }

  // Counter snapshot round-trips as a set (FromJson sorts by name).
  auto sorted = [](std::vector<obs::CounterSample> samples) {
    std::sort(samples.begin(), samples.end(),
              [](const auto& a, const auto& b) { return a.name < b.name; });
    return samples;
  };
  const auto expected = sorted(report.counters);
  const auto actual = sorted(parsed.counters);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].name, expected[i].name);
    EXPECT_EQ(actual[i].value, expected[i].value);
  }

  // The engine's registry counters saw every root and every match.
  const obs::Counter* roots =
      obs::DefaultRegistry().FindCounter("engine.roots_done");
  ASSERT_NE(roots, nullptr);
  EXPECT_EQ(roots->Value(), g.NumVertices());
  const obs::Counter* matches =
      obs::DefaultRegistry().FindCounter("engine.matches_found");
  ASSERT_NE(matches, nullptr);
  EXPECT_EQ(matches->Value(), result.num_matches);
}

TEST(RunReportTest, BinarySearchCounterRoundTrips) {
  obs::RunReport report;
  report.tool = "obs_test";
  report.engine.intersections.num_binary_search = 123;
  report.engine.intersections.num_merge = 7;
  obs::RunReport parsed;
  ASSERT_TRUE(obs::RunReport::FromJson(report.ToJson(), &parsed).ok());
  EXPECT_EQ(parsed.engine.intersections.num_binary_search, 123u);
  EXPECT_EQ(parsed.engine.intersections.num_merge, 7u);

  // Reports written before the binary_search field existed still parse,
  // with the counter defaulting to zero.
  const std::string old_json =
      "{\"schema\": \"light.run_report.v1\", \"tool\": \"legacy\", "
      "\"engine\": {\"intersections\": {\"total\": 5, \"merge\": 5}}}";
  obs::RunReport legacy;
  ASSERT_TRUE(obs::RunReport::FromJson(old_json, &legacy).ok());
  EXPECT_EQ(legacy.engine.intersections.num_intersections, 5u);
  EXPECT_EQ(legacy.engine.intersections.num_binary_search, 0u);
  EXPECT_EQ(legacy.engine.intersections.elements, 0u);
}

TEST(SessionReportTest, RoundTripPreservesEveryField) {
  obs::SessionReport report;
  report.tool = "obs_test";
  report.dataset = "synthetic";
  report.graph_vertices = 100;
  report.graph_edges = 400;
  report.pool_threads = 4;
  report.queries_submitted = 3;
  report.queries_completed = 3;
  report.plan_cache_hits = 1;
  report.plan_cache_misses = 2;

  obs::Histogram latency("report.latency");
  latency.Observe(10);
  latency.Observe(20);
  latency.Observe(30);
  report.latency = obs::HistogramSummary::FromSnapshot(latency.Snap());
  EXPECT_EQ(report.latency.count, 3u);
  EXPECT_EQ(report.latency.sum, 60u);
  EXPECT_EQ(report.latency.p50, 20u);  // exact: values below kSubBuckets
  EXPECT_EQ(report.latency.max, 30u);
  EXPECT_DOUBLE_EQ(report.latency.MeanSeconds(), 20.0 / 1e9);

  obs::SessionQueryRecord q;
  q.stats.query_id = 41;
  q.stats.plan_cache_hit = true;
  q.stats.plan_ns = 5;
  q.stats.queue_wait_ns = 6;
  q.stats.execute_ns = 7;
  q.stats.total_ns = 20;
  q.stats.ranges_executed = 3;
  q.stats.steals = 1;
  q.stats.busy_ns = 8;
  q.stats.park_ns = 2;
  q.pattern = "0-1 1-2 0-2";
  q.num_matches = 9;
  q.timed_out = false;
  report.queries.push_back(q);

  obs::SlowQueryRecord slow;
  slow.kind = "slow";
  slow.query_id = 41;
  slow.pattern = "0-1 1-2 0-2";
  slow.plan_sigma = "MAT(0) COMP(1) MAT(1)";
  slow.latency_seconds = 1.5;
  slow.ranges_executed = 3;
  report.slow_queries.push_back(slow);
  obs::SlowQueryRecord stuck;
  stuck.kind = "stuck";
  stuck.query_id = 43;
  stuck.pending_ranges = 11;
  stuck.leases = 2;
  report.slow_queries.push_back(stuck);

  report.counters.push_back({"engine.roots_done", 17});

  obs::SessionReport parsed;
  ASSERT_TRUE(obs::SessionReport::FromJson(report.ToJson(), &parsed).ok())
      << report.ToJson();
  EXPECT_EQ(parsed.tool, "obs_test");
  EXPECT_EQ(parsed.dataset, "synthetic");
  EXPECT_EQ(parsed.graph_vertices, 100u);
  EXPECT_EQ(parsed.graph_edges, 400u);
  EXPECT_EQ(parsed.pool_threads, 4);
  EXPECT_EQ(parsed.queries_submitted, 3u);
  EXPECT_EQ(parsed.queries_completed, 3u);
  EXPECT_EQ(parsed.plan_cache_hits, 1u);
  EXPECT_EQ(parsed.plan_cache_misses, 2u);
  EXPECT_EQ(parsed.latency.count, report.latency.count);
  EXPECT_EQ(parsed.latency.sum, report.latency.sum);
  EXPECT_EQ(parsed.latency.p50, report.latency.p50);
  EXPECT_EQ(parsed.latency.p999, report.latency.p999);
  EXPECT_EQ(parsed.latency.max, report.latency.max);

  ASSERT_EQ(parsed.queries.size(), 1u);
  const obs::SessionQueryRecord& pq = parsed.queries[0];
  EXPECT_EQ(pq.stats.query_id, 41u);
  EXPECT_TRUE(pq.stats.plan_cache_hit);
  EXPECT_EQ(pq.stats.plan_ns, 5u);
  EXPECT_EQ(pq.stats.queue_wait_ns, 6u);
  EXPECT_EQ(pq.stats.execute_ns, 7u);
  EXPECT_EQ(pq.stats.total_ns, 20u);
  EXPECT_EQ(pq.stats.ranges_executed, 3u);
  EXPECT_EQ(pq.stats.steals, 1u);
  EXPECT_EQ(pq.stats.busy_ns, 8u);
  EXPECT_EQ(pq.stats.park_ns, 2u);
  EXPECT_EQ(pq.pattern, "0-1 1-2 0-2");
  EXPECT_EQ(pq.num_matches, 9u);

  ASSERT_EQ(parsed.slow_queries.size(), 2u);
  EXPECT_EQ(parsed.slow_queries[0].kind, "slow");
  EXPECT_EQ(parsed.slow_queries[0].plan_sigma, "MAT(0) COMP(1) MAT(1)");
  EXPECT_DOUBLE_EQ(parsed.slow_queries[0].latency_seconds, 1.5);
  EXPECT_EQ(parsed.slow_queries[0].ranges_executed, 3u);
  EXPECT_EQ(parsed.slow_queries[1].kind, "stuck");
  EXPECT_EQ(parsed.slow_queries[1].query_id, 43u);
  EXPECT_EQ(parsed.slow_queries[1].pending_ranges, 11u);
  EXPECT_EQ(parsed.slow_queries[1].leases, 2);

  ASSERT_EQ(parsed.counters.size(), 1u);
  EXPECT_EQ(parsed.counters[0].name, "engine.roots_done");
  EXPECT_EQ(parsed.counters[0].value, 17u);
}

TEST(SessionReportTest, SchemaGuardKeepsRunReportV1Compatible) {
  // A PR-1-era run report is not a session report: the session parser must
  // reject it rather than mis-read it...
  const std::string run_json =
      "{\"schema\": \"light.run_report.v1\", \"tool\": \"legacy\", "
      "\"engine\": {\"intersections\": {\"total\": 5, \"merge\": 5}}}";
  obs::SessionReport rejected;
  EXPECT_FALSE(obs::SessionReport::FromJson(run_json, &rejected).ok());

  // ...while RunReport::FromJson still parses it unchanged — the two
  // schemas coexist side by side.
  obs::RunReport legacy;
  ASSERT_TRUE(obs::RunReport::FromJson(run_json, &legacy).ok());
  EXPECT_EQ(legacy.tool, "legacy");
  EXPECT_EQ(legacy.engine.intersections.num_intersections, 5u);

  // And the converse: a session report is not a run report.
  obs::SessionReport session_report;
  session_report.tool = "obs_test";
  obs::RunReport cross;
  EXPECT_FALSE(obs::RunReport::FromJson(session_report.ToJson(), &cross).ok());
}

TEST(SessionReportTest, AcceptsOlderStoreBlockWithPageFaults) {
  // Documents written while the store had a paged mode carry
  // store.page_faults_estimated; the key is ignored, the rest parses.
  const std::string old_json =
      "{\"schema\": \"light.session_report.v1\", \"tool\": \"old\", "
      "\"store\": {\"mode\": \"mmap\", \"bytes_mapped\": 4096, "
      "\"page_faults_estimated\": 0}}";
  obs::SessionReport parsed;
  ASSERT_TRUE(obs::SessionReport::FromJson(old_json, &parsed).ok());
  EXPECT_EQ(parsed.tool, "old");
  EXPECT_EQ(parsed.store_mode, "mmap");
  EXPECT_EQ(parsed.store_bytes_mapped, 4096u);

  // A freshly written report no longer emits the key.
  EXPECT_EQ(parsed.ToJson().find("page_faults_estimated"), std::string::npos);
}

TEST(RunReportTest, EngineTraceProducesValidChromeTrace) {
  const Graph g = RelabelByDegree(BarabasiAlbert(800, 5, /*seed=*/11));
  Pattern p1;
  ASSERT_TRUE(FindPattern("P1", &p1).ok());
  const ExecutionPlan plan =
      BuildPlan(p1, g, ComputeGraphStats(g), PlanOptions::Light());

  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.SetRootSampleMask(15);  // every 16th root
  tracer.Start();
  ParallelOptions options;
  options.num_threads = 2;
  ParallelCount(g, plan, options);
  tracer.Stop();
  tracer.SetRootSampleMask(63);

  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(tracer.ToChromeJson(), &doc, &error)) << error;
  size_t roots = 0;
  size_t comps = 0;
  size_t mats = 0;
  size_t workers = 0;
  for (const obs::JsonValue& e : doc["traceEvents"].array) {
    const std::string& name = e["name"].string_value;
    roots += name == "root";
    comps += name == "COMP";
    mats += name == "MAT";
    workers += name == "worker";
  }
  EXPECT_GT(roots, 0u);
  EXPECT_GT(comps, 0u);
  EXPECT_GT(mats, 0u);
  EXPECT_EQ(workers, 2u);
}

TEST(SummarizeWorkersTest, ComputesImbalanceAndUsage) {
  std::vector<obs::WorkerStats> workers(4);
  workers[0].roots_processed = 100;
  workers[1].roots_processed = 300;
  workers[2].roots_processed = 0;
  workers[3].roots_processed = 0;
  workers[0].steals_initiated = 2;
  workers[1].idle_ns = 50;
  const obs::WorkerSummary summary = obs::SummarizeWorkers(workers);
  EXPECT_EQ(summary.threads_configured, 4);
  EXPECT_EQ(summary.threads_used, 2);
  // max = 300, mean = 100 -> imbalance 3.0.
  EXPECT_DOUBLE_EQ(summary.load_imbalance, 3.0);
  EXPECT_EQ(summary.total_steals, 2u);
  EXPECT_EQ(summary.total_idle_ns, 50u);
}

}  // namespace
}  // namespace light
