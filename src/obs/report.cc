#include "obs/report.h"

#include <algorithm>
#include <cstdio>

#include "obs/json.h"
#include "obs/metrics.h"

namespace light::obs {

void WorkerStats::Add(const WorkerStats& other) {
  roots_processed += other.roots_processed;
  ranges_popped += other.ranges_popped;
  steals_initiated += other.steals_initiated;
  steals_received += other.steals_received;
  idle_ns += other.idle_ns;
  busy_ns += other.busy_ns;
  matches += other.matches;
}

WorkerSummary SummarizeWorkers(const std::vector<WorkerStats>& workers) {
  WorkerSummary summary;
  summary.threads_configured = static_cast<int>(workers.size());
  uint64_t total_roots = 0;
  uint64_t max_roots = 0;
  for (const WorkerStats& w : workers) {
    if (w.roots_processed > 0) ++summary.threads_used;
    total_roots += w.roots_processed;
    max_roots = std::max(max_roots, w.roots_processed);
    summary.total_steals += w.steals_initiated;
    summary.total_idle_ns += w.idle_ns;
  }
  if (!workers.empty() && total_roots > 0) {
    const double mean = static_cast<double>(total_roots) /
                        static_cast<double>(workers.size());
    summary.load_imbalance = static_cast<double>(max_roots) / mean;
  }
  return summary;
}

namespace {

void WriteUintArray(JsonWriter* w, std::string_view key,
                    const std::vector<uint64_t>& values) {
  w->Key(key);
  w->BeginArray();
  for (uint64_t v : values) w->Uint(v);
  w->EndArray();
}

std::vector<uint64_t> ReadUintArray(const JsonValue& value) {
  std::vector<uint64_t> out;
  out.reserve(value.array.size());
  for (const JsonValue& v : value.array) out.push_back(v.AsUint());
  return out;
}

}  // namespace

std::string PlanOrderString(const ExecutionPlan& plan) {
  std::string order;
  for (int u : plan.pi) {
    if (!order.empty()) order += ' ';
    order += std::to_string(u);
  }
  return order;
}

std::string PlanSigmaString(const ExecutionPlan& plan) {
  std::string sigma;
  for (const Operation& op : plan.sigma) {
    if (!sigma.empty()) sigma += ' ';
    sigma += op.type == OpType::kCompute ? "COMP(" : "MAT(";
    sigma += std::to_string(op.vertex);
    sigma += ')';
  }
  return sigma;
}

void FillFromEngine(const ExecutionPlan& plan, const EngineStats& stats,
                    RunReport* report) {
  report->engine = stats;
  report->num_matches = stats.num_matches;
  report->elapsed_seconds = stats.elapsed_seconds;
  report->timed_out = stats.timed_out;
  report->kernel = KernelName(plan.options.kernel);
  report->plan_order = PlanOrderString(plan);
  report->plan_sigma = PlanSigmaString(plan);
}

void SnapshotCounters(RunReport* report) {
  report->counters.clear();
  DefaultRegistry().ForEachCounter([report](const Counter& counter) {
    report->counters.push_back({counter.name(), counter.Value()});
  });
}

std::string RunReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.KV("schema", "light.run_report.v1");
  w.KV("tool", tool);
  w.KV("dataset", dataset);
  w.KV("pattern", pattern);
  w.KV("algorithm", algorithm);
  w.KV("kernel", kernel);

  w.Key("graph");
  w.BeginObject();
  w.KV("vertices", graph_vertices);
  w.KV("edges", graph_edges);
  w.EndObject();

  w.Key("bitmap_index");
  w.BeginObject();
  w.KV("rows", bitmap_rows);
  w.KV("memory_bytes", bitmap_memory_bytes);
  w.EndObject();

  w.Key("plan");
  w.BeginObject();
  w.KV("order", plan_order);
  w.KV("sigma", plan_sigma);
  w.EndObject();

  w.KV("num_matches", num_matches);
  w.KV("elapsed_seconds", elapsed_seconds);
  w.KV("timed_out", timed_out);

  w.Key("engine");
  w.BeginObject();
  w.KV("num_partial_results", engine.num_partial_results);
  WriteUintArray(&w, "comp_counts", engine.comp_counts);
  WriteUintArray(&w, "mat_counts", engine.mat_counts);
  w.KV("candidate_memory_bytes",
       static_cast<uint64_t>(engine.candidate_memory_bytes));
  w.Key("intersections");
  w.BeginObject();
  w.KV("total", engine.intersections.num_intersections);
  w.KV("galloping", engine.intersections.num_galloping);
  w.KV("merge", engine.intersections.num_merge);
  w.KV("binary_search", engine.intersections.num_binary_search);
  w.KV("bitmap_and", engine.intersections.num_bitmap_and);
  w.KV("bitmap_probe", engine.intersections.num_bitmap_probe);
  w.KV("elements", engine.intersections.elements);
  w.KV("galloping_fraction", engine.intersections.GallopingFraction());
  w.KV("bitmap_fraction", engine.intersections.BitmapFraction());
  w.EndObject();
  w.EndObject();

  w.Key("parallel");
  w.BeginObject();
  w.KV("threads_configured", summary.threads_configured);
  w.KV("threads_used", summary.threads_used);
  w.KV("load_imbalance", summary.load_imbalance);
  w.KV("total_steals", summary.total_steals);
  w.KV("total_idle_ns", summary.total_idle_ns);
  w.Key("workers");
  w.BeginArray();
  for (const WorkerStats& worker : workers) {
    w.BeginObject();
    w.KV("id", worker.worker_id);
    w.KV("roots", worker.roots_processed);
    w.KV("ranges", worker.ranges_popped);
    w.KV("steals_initiated", worker.steals_initiated);
    w.KV("steals_received", worker.steals_received);
    w.KV("idle_ns", worker.idle_ns);
    w.KV("busy_ns", worker.busy_ns);
    w.KV("matches", worker.matches);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  w.Key("counters");
  w.BeginObject();
  for (const CounterSample& sample : counters) {
    w.KV(sample.name, sample.value);
  }
  w.EndObject();

  w.EndObject();
  return w.Take();
}

Status RunReport::FromJson(const std::string& json, RunReport* out) {
  JsonValue root;
  std::string error;
  if (!ParseJson(json, &root, &error)) {
    return Status::InvalidArgument("bad run report JSON: " + error);
  }
  if (!root.is_object() ||
      root["schema"].string_value != "light.run_report.v1") {
    return Status::InvalidArgument("not a light.run_report.v1 document");
  }
  *out = RunReport();
  out->tool = root["tool"].string_value;
  out->dataset = root["dataset"].string_value;
  out->pattern = root["pattern"].string_value;
  out->algorithm = root["algorithm"].string_value;
  out->kernel = root["kernel"].string_value;
  out->graph_vertices = root["graph"]["vertices"].AsUint();
  out->graph_edges = root["graph"]["edges"].AsUint();
  out->bitmap_rows = root["bitmap_index"]["rows"].AsUint();
  out->bitmap_memory_bytes = root["bitmap_index"]["memory_bytes"].AsUint();
  out->plan_order = root["plan"]["order"].string_value;
  out->plan_sigma = root["plan"]["sigma"].string_value;
  out->num_matches = root["num_matches"].AsUint();
  out->elapsed_seconds = root["elapsed_seconds"].AsDouble();
  out->timed_out = root["timed_out"].bool_value;

  const JsonValue& engine = root["engine"];
  out->engine.num_matches = out->num_matches;
  out->engine.num_partial_results = engine["num_partial_results"].AsUint();
  out->engine.comp_counts = ReadUintArray(engine["comp_counts"]);
  out->engine.mat_counts = ReadUintArray(engine["mat_counts"]);
  out->engine.candidate_memory_bytes =
      engine["candidate_memory_bytes"].AsUint();
  out->engine.elapsed_seconds = out->elapsed_seconds;
  out->engine.timed_out = out->timed_out;
  const JsonValue& intersections = engine["intersections"];
  out->engine.intersections.num_intersections =
      intersections["total"].AsUint();
  out->engine.intersections.num_galloping =
      intersections["galloping"].AsUint();
  out->engine.intersections.num_merge = intersections["merge"].AsUint();
  out->engine.intersections.num_binary_search =
      intersections["binary_search"].AsUint();
  // Bitmap routes (absent in pre-bitmap reports; missing keys parse as 0).
  out->engine.intersections.num_bitmap_and =
      intersections["bitmap_and"].AsUint();
  out->engine.intersections.num_bitmap_probe =
      intersections["bitmap_probe"].AsUint();
  // Elements scanned (absent in earlier reports; parses as 0).
  out->engine.intersections.elements = intersections["elements"].AsUint();

  const JsonValue& parallel = root["parallel"];
  out->summary.threads_configured =
      static_cast<int>(parallel["threads_configured"].AsUint());
  out->summary.threads_used =
      static_cast<int>(parallel["threads_used"].AsUint());
  out->summary.load_imbalance = parallel["load_imbalance"].AsDouble();
  out->summary.total_steals = parallel["total_steals"].AsUint();
  out->summary.total_idle_ns = parallel["total_idle_ns"].AsUint();
  for (const JsonValue& w : parallel["workers"].array) {
    WorkerStats worker;
    worker.worker_id = static_cast<int>(w["id"].AsUint());
    worker.roots_processed = w["roots"].AsUint();
    worker.ranges_popped = w["ranges"].AsUint();
    worker.steals_initiated = w["steals_initiated"].AsUint();
    worker.steals_received = w["steals_received"].AsUint();
    worker.idle_ns = w["idle_ns"].AsUint();
    worker.busy_ns = w["busy_ns"].AsUint();
    worker.matches = w["matches"].AsUint();
    out->workers.push_back(worker);
  }

  for (const auto& [name, value] : root["counters"].object) {
    out->counters.push_back({name, value.AsUint()});
  }
  return Status::OK();
}

Status RunReport::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open report output " + path);
  }
  const std::string json = ToJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Session reports
// ---------------------------------------------------------------------------

HistogramSummary HistogramSummary::FromSnapshot(
    const Histogram::Snapshot& snapshot) {
  HistogramSummary s;
  s.count = snapshot.count;
  s.sum = snapshot.sum;
  s.p50 = snapshot.P50();
  s.p90 = snapshot.P90();
  s.p99 = snapshot.P99();
  s.p999 = snapshot.P999();
  s.max = snapshot.Max();
  return s;
}

namespace {

void WriteHistogramSummary(JsonWriter* w, std::string_view key,
                           const HistogramSummary& s) {
  w->Key(key);
  w->BeginObject();
  w->KV("count", s.count);
  w->KV("sum", s.sum);
  w->KV("p50", s.p50);
  w->KV("p90", s.p90);
  w->KV("p99", s.p99);
  w->KV("p999", s.p999);
  w->KV("max", s.max);
  w->EndObject();
}

HistogramSummary ReadHistogramSummary(const JsonValue& v) {
  HistogramSummary s;
  s.count = v["count"].AsUint();
  s.sum = v["sum"].AsUint();
  s.p50 = v["p50"].AsUint();
  s.p90 = v["p90"].AsUint();
  s.p99 = v["p99"].AsUint();
  s.p999 = v["p999"].AsUint();
  s.max = v["max"].AsUint();
  return s;
}

}  // namespace

std::string SessionReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.KV("schema", "light.session_report.v1");
  w.KV("tool", tool);
  w.KV("dataset", dataset);

  w.Key("graph");
  w.BeginObject();
  w.KV("vertices", graph_vertices);
  w.KV("edges", graph_edges);
  w.EndObject();

  // Additive v1 extension: present only for GraphStore-backed sessions;
  // absent keys parse as empty/zero in older readers.
  if (!store_mode.empty()) {
    w.Key("store");
    w.BeginObject();
    w.KV("mode", store_mode);
    w.KV("bytes_mapped", store_bytes_mapped);
    w.EndObject();
  }

  w.Key("pool");
  w.BeginObject();
  w.KV("threads", pool_threads);
  w.KV("queries_submitted", queries_submitted);
  w.KV("queries_completed", queries_completed);
  w.KV("plan_cache_hits", plan_cache_hits);
  w.KV("plan_cache_misses", plan_cache_misses);
  w.KV("deadline_exceeded", deadline_exceeded);
  w.KV("overload_rejected", overload_rejected);
  w.KV("cancelled", cancelled);
  w.EndObject();

  WriteHistogramSummary(&w, "latency_ns", latency);
  WriteHistogramSummary(&w, "queue_wait_ns", queue_wait);
  WriteHistogramSummary(&w, "execute_ns", execute);
  WriteHistogramSummary(&w, "plan_ns", plan_resolve);

  w.Key("queries");
  w.BeginArray();
  for (const SessionQueryRecord& q : queries) {
    w.BeginObject();
    w.KV("query_id", q.stats.query_id);
    w.KV("pattern", q.pattern);
    w.KV("ok", q.ok);
    w.KV("timed_out", q.timed_out);
    w.KV("num_matches", q.num_matches);
    w.KV("plan_cache_hit", q.stats.plan_cache_hit);
    w.KV("plan_ns", q.stats.plan_ns);
    w.KV("queue_wait_ns", q.stats.queue_wait_ns);
    w.KV("execute_ns", q.stats.execute_ns);
    w.KV("total_ns", q.stats.total_ns);
    w.KV("ranges_executed", q.stats.ranges_executed);
    w.KV("steals", q.stats.steals);
    w.KV("busy_ns", q.stats.busy_ns);
    w.KV("park_ns", q.stats.park_ns);
    w.EndObject();
  }
  w.EndArray();

  w.Key("slow_queries");
  w.BeginArray();
  for (const SlowQueryRecord& s : slow_queries) {
    w.BeginObject();
    w.KV("kind", s.kind);
    w.KV("query_id", s.query_id);
    w.KV("pattern", s.pattern);
    w.KV("plan_sigma", s.plan_sigma);
    w.KV("latency_seconds", s.latency_seconds);
    w.KV("ranges_executed", s.ranges_executed);
    w.KV("pending_ranges", s.pending_ranges);
    w.KV("leases", s.leases);
    w.EndObject();
  }
  w.EndArray();

  w.Key("counters");
  w.BeginObject();
  for (const CounterSample& sample : counters) {
    w.KV(sample.name, sample.value);
  }
  w.EndObject();

  w.EndObject();
  return w.Take();
}

Status SessionReport::FromJson(const std::string& json, SessionReport* out) {
  JsonValue root;
  std::string error;
  if (!ParseJson(json, &root, &error)) {
    return Status::InvalidArgument("bad session report JSON: " + error);
  }
  if (!root.is_object() ||
      root["schema"].string_value != "light.session_report.v1") {
    return Status::InvalidArgument("not a light.session_report.v1 document");
  }
  *out = SessionReport();
  out->tool = root["tool"].string_value;
  out->dataset = root["dataset"].string_value;
  out->graph_vertices = root["graph"]["vertices"].AsUint();
  out->graph_edges = root["graph"]["edges"].AsUint();

  // Optional storage-engine block (additive; absent in pre-store documents).
  // Older documents also carry store.page_faults_estimated, which is
  // ignored.
  const JsonValue& store = root["store"];
  out->store_mode = store["mode"].string_value;
  out->store_bytes_mapped = store["bytes_mapped"].AsUint();

  const JsonValue& pool = root["pool"];
  out->pool_threads = static_cast<int>(pool["threads"].AsUint());
  out->queries_submitted = pool["queries_submitted"].AsUint();
  out->queries_completed = pool["queries_completed"].AsUint();
  out->plan_cache_hits = pool["plan_cache_hits"].AsUint();
  out->plan_cache_misses = pool["plan_cache_misses"].AsUint();
  // Absent in pre-serving documents; the null JsonValue reads as zero.
  out->deadline_exceeded = pool["deadline_exceeded"].AsUint();
  out->overload_rejected = pool["overload_rejected"].AsUint();
  out->cancelled = pool["cancelled"].AsUint();

  out->latency = ReadHistogramSummary(root["latency_ns"]);
  out->queue_wait = ReadHistogramSummary(root["queue_wait_ns"]);
  out->execute = ReadHistogramSummary(root["execute_ns"]);
  out->plan_resolve = ReadHistogramSummary(root["plan_ns"]);

  for (const JsonValue& q : root["queries"].array) {
    SessionQueryRecord record;
    record.stats.query_id = q["query_id"].AsUint();
    record.pattern = q["pattern"].string_value;
    record.ok = q["ok"].bool_value;
    record.timed_out = q["timed_out"].bool_value;
    record.num_matches = q["num_matches"].AsUint();
    record.stats.plan_cache_hit = q["plan_cache_hit"].bool_value;
    record.stats.plan_ns = q["plan_ns"].AsUint();
    record.stats.queue_wait_ns = q["queue_wait_ns"].AsUint();
    record.stats.execute_ns = q["execute_ns"].AsUint();
    record.stats.total_ns = q["total_ns"].AsUint();
    record.stats.ranges_executed = q["ranges_executed"].AsUint();
    record.stats.steals = q["steals"].AsUint();
    record.stats.busy_ns = q["busy_ns"].AsUint();
    record.stats.park_ns = q["park_ns"].AsUint();
    out->queries.push_back(std::move(record));
  }

  for (const JsonValue& s : root["slow_queries"].array) {
    SlowQueryRecord record;
    record.kind = s["kind"].string_value;
    record.query_id = s["query_id"].AsUint();
    record.pattern = s["pattern"].string_value;
    record.plan_sigma = s["plan_sigma"].string_value;
    record.latency_seconds = s["latency_seconds"].AsDouble();
    record.ranges_executed = s["ranges_executed"].AsUint();
    record.pending_ranges = s["pending_ranges"].AsUint();
    record.leases = static_cast<int>(s["leases"].AsUint());
    out->slow_queries.push_back(std::move(record));
  }

  for (const auto& [name, value] : root["counters"].object) {
    out->counters.push_back({name, value.AsUint()});
  }
  return Status::OK();
}

Status SessionReport::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open report output " + path);
  }
  const std::string json = ToJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

}  // namespace light::obs
