#ifndef LIGHT_OBS_REPORT_H_
#define LIGHT_OBS_REPORT_H_

/// Structured run report: everything the paper's evaluation reads off a run
/// (|Phi_u| computation counts, intersection/kernel counters, candidate
/// memory, per-worker balance) serialized to JSON for scripts and
/// dashboards. See README "Observability" for the schema and
/// EXPERIMENTS.md for the figure/table each field backs.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/enumerator.h"
#include "obs/metrics.h"
#include "obs/query_stats.h"

namespace light::obs {

struct JsonValue;

/// Per-worker counters collected by the parallel runtime (Section VII-B's
/// donation-based balancing made visible). idle_ns is time blocked in the
/// task-queue Pop; steals_initiated counts half-ranges this worker donated
/// to starving peers, steals_received counts donated ranges it picked up.
struct WorkerStats {
  int worker_id = 0;
  uint64_t roots_processed = 0;
  uint64_t ranges_popped = 0;
  uint64_t steals_initiated = 0;
  uint64_t steals_received = 0;
  uint64_t idle_ns = 0;
  uint64_t busy_ns = 0;
  uint64_t matches = 0;

  void Add(const WorkerStats& other);
};

/// Summary of the worker set, Fig. 7-style: threads_used counts workers
/// that processed at least one root; load_imbalance is max/mean roots per
/// configured worker (1.0 = perfectly balanced).
struct WorkerSummary {
  int threads_configured = 0;
  int threads_used = 0;
  double load_imbalance = 0.0;
  uint64_t total_steals = 0;
  uint64_t total_idle_ns = 0;
};

WorkerSummary SummarizeWorkers(const std::vector<WorkerStats>& workers);

// CounterSample (a named-counter snapshot entry) lives in obs/metrics.h
// alongside the epoch-snapshot API; re-exported here for report users.

/// The structured run report. Callers fill the metadata strings (tool,
/// dataset, ...); the engine/runtime integration fills the rest.
struct RunReport {
  // Run metadata.
  std::string tool;       // e.g. "light_cli"
  std::string dataset;    // dataset/graph identifier
  std::string pattern;    // pattern name or edge list
  std::string algorithm;  // light | se | lm | msc | cfl
  std::string kernel;     // intersection kernel name (Figure 6 labels)

  // Graph metadata.
  uint64_t graph_vertices = 0;
  uint64_t graph_edges = 0;

  // Bitmap index (hybrid candidate sets): rows materialized and their
  // memory; 0/0 when the index is disabled or empty.
  uint64_t bitmap_rows = 0;
  uint64_t bitmap_memory_bytes = 0;

  // Plan metadata.
  std::string plan_order;  // enumeration order pi, space-separated
  std::string plan_sigma;  // execution order, e.g. "MAT(0) COMP(1) MAT(1)"

  // Outcome.
  uint64_t num_matches = 0;
  double elapsed_seconds = 0.0;
  bool timed_out = false;

  // Engine counters (per-pattern-vertex comp/mat counts, intersection and
  // kernel-routing stats, candidate memory — Figs. 4/5, Tables III/V).
  EngineStats engine;

  // Parallel runtime (empty for serial runs).
  WorkerSummary summary;
  std::vector<WorkerStats> workers;

  // Metrics-registry snapshot (empty unless metrics were enabled).
  std::vector<CounterSample> counters;

  /// Pretty-printed JSON document.
  std::string ToJson() const;

  /// Inverse of ToJson (round-trip support for tests and tooling).
  static Status FromJson(const std::string& json, RunReport* out);

  Status WriteFile(const std::string& path) const;
};

/// Fills the plan/engine/outcome sections from an execution plan + merged
/// engine stats. Worker stats, metadata strings, and counter snapshots are
/// layered on by the caller.
void FillFromEngine(const ExecutionPlan& plan, const EngineStats& stats,
                    RunReport* report);

/// Snapshots every counter of the default metrics registry into the report.
void SnapshotCounters(RunReport* report);

/// Human-readable plan projections ("0 1 2" / "MAT(0) COMP(1)"), shared by
/// run reports and the slow-query log.
std::string PlanOrderString(const ExecutionPlan& plan);
std::string PlanSigmaString(const ExecutionPlan& plan);

// ---------------------------------------------------------------------------
// Session reports (light.session_report.v1): the serving-layer counterpart
// of RunReport — per-query lifecycle records plus pool-level latency
// quantiles, emitted by Session::FillSessionReport.
// ---------------------------------------------------------------------------

/// Quantile summary of one latency histogram (values in nanoseconds).
struct HistogramSummary {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;
  uint64_t max = 0;

  static HistogramSummary FromSnapshot(const Histogram::Snapshot& snapshot);
  double MeanSeconds() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) /
                            (1e9 * static_cast<double>(count));
  }
};

/// One query's lifecycle in a session report.
struct SessionQueryRecord {
  QueryStats stats;
  std::string pattern;  // readable edge list (FormatPattern)
  uint64_t num_matches = 0;
  bool ok = true;
  bool timed_out = false;
};

/// Slow-query log entry. kind "slow": completed above the session's latency
/// threshold; kind "stuck": the watchdog saw its lease count static across
/// a full window.
struct SlowQueryRecord {
  std::string kind;  // "slow" | "stuck"
  uint64_t query_id = 0;
  std::string pattern;    // canonical-form edge list
  std::string plan_sigma;  // plan summary (empty for stuck pool queries)
  double latency_seconds = 0;
  // Range-progress snapshot at record time: completed work for slow
  // queries, live queue state for stuck ones.
  uint64_t ranges_executed = 0;
  uint64_t pending_ranges = 0;
  int leases = 0;
};

/// The serving-layer report: session/pool aggregates, latency breakdown,
/// per-query records, and the slow-query log.
struct SessionReport {
  std::string tool;  // e.g. "light::Session"
  std::string dataset;

  uint64_t graph_vertices = 0;
  uint64_t graph_edges = 0;

  // Storage engine (empty/zero when the session wraps a plain in-memory
  // Graph rather than a GraphStore). store_mode is "heap" | "mmap".
  std::string store_mode;
  uint64_t store_bytes_mapped = 0;

  int pool_threads = 0;
  uint64_t queries_submitted = 0;
  uint64_t queries_completed = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  // Serving outcomes (additive in-place extension of the v1 schema: absent
  // keys parse as zero, so older documents stay readable).
  uint64_t deadline_exceeded = 0;
  uint64_t overload_rejected = 0;
  uint64_t cancelled = 0;

  // Pool-level latency breakdown, nanoseconds (end-to-end, scheduling
  // wait, execution, plan resolution).
  HistogramSummary latency;
  HistogramSummary queue_wait;
  HistogramSummary execute;
  HistogramSummary plan_resolve;

  std::vector<SessionQueryRecord> queries;
  std::vector<SlowQueryRecord> slow_queries;

  // Metrics-registry snapshot (empty unless metrics were enabled).
  std::vector<CounterSample> counters;

  /// Pretty-printed JSON document, schema "light.session_report.v1".
  std::string ToJson() const;

  /// Inverse of ToJson. Rejects documents with a different schema string
  /// (light.run_report.v1 documents parse with RunReport::FromJson, which
  /// remains unchanged — the two schemas coexist).
  static Status FromJson(const std::string& json, SessionReport* out);

  Status WriteFile(const std::string& path) const;
};

}  // namespace light::obs

#endif  // LIGHT_OBS_REPORT_H_
