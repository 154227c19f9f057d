#ifndef LIGHT_LIGHT_H_
#define LIGHT_LIGHT_H_

/// Umbrella header and one-call facade for the LIGHT subgraph enumeration
/// library. For fine-grained control include the module headers directly
/// (see README "Architecture"); for the common case — "count or stream the
/// embeddings of this pattern in this graph" — use light::Run below.
///
/// light::Run is the single entry point for one-shot queries: one
/// RunOptions carries the execution knobs (threads, time limit, labels,
/// visitor, report sink) plus a nested light::PlanOptions
/// (RunOptions::plan_options) holding every plan-shaping knob — algorithm
/// variant, kernel, count strategy, bitmap thresholds — with
/// Validate()/Normalized() on both layers, and one
/// RunResult carries every outcome (matches, elapsed, timed_out, error
/// string). For a stream of queries against one data graph, light::Session
/// below amortizes what Run rebuilds per call (worker threads, plans,
/// bitmap index, per-worker scratch).
///
/// The pre-Run CountSubgraphs / EnumerateSubgraphs wrappers and the flat
/// plan-shaping RunOptions/SessionOptions fields of earlier releases
/// (lazy_materialization, minimum_set_cover, kernel, auto_kernel, induced,
/// bitmap_*) are GONE (see README "Migration"): use light::Run, passing the
/// visitor through RunOptions::visitor and every plan-shaping knob through
/// RunOptions::plan_options (SessionOptions::plan_options for the bitmap
/// thresholds).

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/lock_ranks.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/enumerator.h"
#include "engine/visitors.h"
#include "obs/metrics.h"
#include "obs/query_stats.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "graph/bitmap_index.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "graph/graph_view.h"
#include "graph/reorder.h"
#include "parallel/parallel_enumerator.h"
#include "parallel/worker_pool.h"
#include "pattern/catalog.h"
#include "pattern/parse.h"
#include "pattern/pattern.h"
#include "plan/iep.h"
#include "plan/plan.h"
#include "storage/graph_store.h"

namespace light {

/// Options of the one-call API. Field groups mirror the layer they
/// configure: execution (threads/time limit), matching semantics, the
/// nested plan-shaping surface (plan_options), and output sinks.
struct RunOptions {
  // --- Execution ---
  /// Worker threads; 0 = hardware concurrency, 1 = serial.
  int threads = 0;
  /// Wall-clock budget in seconds; 0 = unlimited. Under a Session the
  /// budget is a true deadline anchored at Submit (admit time): plan
  /// resolution and queue wait consume it, and exceeding it aborts the
  /// query with a structured `deadline_exceeded:` error (partial counts
  /// retained, timed_out set). Serial inline runs (threads == 1 /
  /// one-shot Run) keep the classic OOT contract — timed_out set, no
  /// error — but the budget likewise starts at admit.
  double time_limit_seconds = 0;
  /// Scheduling priority under a Session (higher classes drain first on
  /// the shared pool; non-preemptive). Ignored by one-shot serial runs.
  int priority = 0;

  // --- Matching semantics ---
  /// Report each subgraph once (symmetry breaking). With false, all
  /// automorphic images are counted. The facade derives
  /// plan_options.symmetry_breaking from this flag (unique_subgraphs is
  /// authoritative; the nested field is overwritten by Normalized()).
  bool unique_subgraphs = true;
  /// Optional data vertex labels (see Enumerator); must outlive the call.
  const std::vector<uint32_t>* data_labels = nullptr;

  // --- Plan shaping ---
  /// Every plan-shaping knob in one struct (plan/plan.h): algorithm
  /// variant (lazy/msc), induced semantics, intersection kernel, count
  /// strategy, bitmap-index thresholds. Shared verbatim with
  /// SessionOptions; the session plan cache keys on
  /// PlanOptions::CacheKey().
  ///
  /// count_strategy is honored by every entry point: kIep/kAuto count
  /// through an inclusion–exclusion decomposition whose term plans run as
  /// parts of the one query (in turn inline for a threads == 1
  /// Run/RunSync, else concurrently on the pool).
  PlanOptions plan_options;
  /// Precompiled plan override (e.g. from BuildRunPlan or a baseline plan
  /// builder); must outlive the call and match `pattern`. When set, the
  /// plan-shaping fields of plan_options are ignored.
  const ExecutionPlan* plan = nullptr;

  // --- Static plan verification ---
  /// Lint the execution plan before running it (analysis/plan_linter.h):
  /// order connectivity, symmetry-breaking consistency with the
  /// automorphism group, set-cover completeness, constraint wiring, and the
  /// bitmap-config value ranges. Any error-severity finding fails the run
  /// with the diagnostics in RunResult::error instead of executing a plan
  /// that would miscount. Defaults on in debug builds; off in release (the
  /// automorphism rule costs up to n! * |Aut| per run).
#ifdef NDEBUG
  bool lint_plan = false;
#else
  bool lint_plan = true;
#endif

  // --- Output ---
  /// Stream every match through this visitor (serial only; matches arrive
  /// in a deterministic order). Null = count only.
  MatchVisitor* visitor = nullptr;
  /// Optional structured-report sink. When non-null the call fills it with
  /// the run's engine counters, plan metadata, and (parallel runs) the
  /// per-worker stats; serialize with report->ToJson(). Attaching a sink
  /// adds no hot-path cost beyond the counters the engine already keeps.
  obs::RunReport* report = nullptr;

  /// Rejects configurations outside the documented domain: negative
  /// threads, NaN or negative time limits, a visitor combined with
  /// threads > 1 (streaming is serial; parallel enumeration with a visitor
  /// is unsupported, not silently serialized), plus everything
  /// PlanOptions::Validate rejects on plan_options (out-of-range bitmap
  /// density, an unavailable pinned kernel).
  /// Callers that surface user input (CLI, fuzz harness, services) should
  /// Validate and report; light::Run validates internally and returns the
  /// message in RunResult::error.
  Status Validate() const;

  /// Returns a copy with every field forced into its valid domain:
  /// threads < 0 clamps to 0 (and, with a visitor, 0 resolves to 1),
  /// NaN/negative time limits become unlimited,
  /// plan_options.symmetry_breaking is overwritten from unique_subgraphs,
  /// and plan_options itself is normalized (kernel resolution, density
  /// clamp).
  RunOptions Normalized() const;
};

/// Structured classification of how a query ended. kOk covers clean
/// completion AND the serial-path classic OOT (timed_out with full error
/// compatibility); the serving outcomes carry a stable machine-parseable
/// error prefix (the k*Prefix constants below) so wire clients and scripts
/// can dispatch without string heuristics.
enum class QueryOutcome {
  kOk = 0,
  /// Pre-execution failure: validation, plan lint, sink errors.
  kError,
  /// The wall-clock deadline (time_limit_seconds from admit) elapsed and
  /// the query was aborted; num_matches is a partial count.
  kDeadlineExceeded,
  /// Admission control rejected the query at Submit; nothing ran.
  kOverloadRejected,
  /// Session::Cancel (e.g. client disconnect) aborted the query.
  kCancelled,
};

/// Stable error-string prefixes for the serving outcomes.
inline constexpr char kDeadlineExceededPrefix[] = "deadline_exceeded:";
inline constexpr char kOverloadRejectedPrefix[] = "overload_rejected:";
inline constexpr char kCancelledPrefix[] = "cancelled:";

/// Outcome of the one-call API. `error` is empty on success; a failed
/// Validate or sink error puts the message here (no exceptions).
struct RunResult {
  uint64_t num_matches = 0;
  double elapsed_seconds = 0;
  bool timed_out = false;
  std::string error;
  /// Structured outcome matching `error` (kOk iff error is empty, except
  /// that serial-path OOT stays kOk + timed_out for back compatibility).
  QueryOutcome outcome = QueryOutcome::kOk;

  /// Lifecycle breakdown of the query (plan resolution, queue wait,
  /// execution, worker attribution). Filled by session/pool execution;
  /// zeroed on pre-execution errors.
  obs::QueryStats query_stats;

  bool ok() const { return error.empty(); }
};

/// Counts (or, with options.visitor, streams) the embeddings of `pattern`
/// in `graph` with the full LIGHT pipeline: degree stats, sampling order
/// optimizer, lazy materialization, minimum set cover, best available SIMD
/// kernel, hybrid bitmap/array candidate sets, and the work-stealing
/// parallel DFS. The graph should be degree-relabeled (RelabelByDegree)
/// when unique_subgraphs is on.
RunResult Run(const Graph& graph, const Pattern& pattern,
              const RunOptions& options = {});

/// Builds the execution plan light::Run would use — for --show-plan style
/// tooling and for reusing one plan across several Run calls via
/// RunOptions::plan. `stats` as from ComputeGraphStats(graph): the
/// planner reads the vertex/edge counts and degree moments only.
ExecutionPlan BuildRunPlan(const Graph& graph, const GraphStats& stats,
                           const Pattern& pattern, const RunOptions& options);

/// Resolves the bitmap-index degree threshold for a graph with `n`
/// vertices: an explicit bitmap_min_degree wins; kBitmapDegreeAuto derives
/// ceil(bitmap_density * n) (at least 1 so density 0 still excludes
/// isolated vertices); kBitmapDegreeNever disables.
uint32_t EffectiveBitmapThreshold(const PlanOptions& options, VertexID n);

// ---------------------------------------------------------------------------
// Sessions: the persistent multi-query service layer.
// ---------------------------------------------------------------------------

/// Configuration of a Session. The bitmap thresholds are session-level:
/// the index is built once per session and shared read-only by every
/// query, so the per-query bitmap fields are ignored for session queries.
struct SessionOptions {
  /// Persistent pool workers; 0 = hardware concurrency.
  int threads = 0;

  /// Session-level plan options. Only the bitmap_* fields are consumed
  /// here (applied once at index build); plan shaping is per query through
  /// RunOptions::plan_options.
  PlanOptions plan_options;

  /// Copy with the plan options normalized.
  SessionOptions Normalized() const;

  /// Plan-cache entries kept (LRU evicted beyond this); 0 disables caching
  /// (every query builds its own plan, as one-shot Run does).
  size_t plan_cache_capacity = 64;

  /// Admission control: maximum concurrently open (submitted, not yet
  /// finished) pool queries. A Submit past the limit is rejected
  /// immediately with a structured `overload_rejected:` error instead of
  /// queueing without bound. 0 (the default) disables the limit.
  int max_pending_queries = 0;

  // --- Serving observability ---
  /// Queries completing slower than this land in the slow-query log with
  /// their canonical pattern, plan summary, and progress snapshot. 0 (the
  /// default) disables the log.
  double slow_query_threshold_seconds = 0;
  /// Watchdog window: the session timer thread snapshots queue progress
  /// every window and records queries whose lease count did not advance
  /// across a full window as "stuck". 0 (the default) disables the
  /// watchdog.
  double stuck_query_window_seconds = 0;
};

/// Point-in-time session counters (see Session::stats()).
struct SessionStats {
  uint64_t queries_submitted = 0;
  /// Results delivered through Wait/RunSync/RunBatch (a submitted query
  /// whose ticket was never waited on is not counted here).
  uint64_t queries_completed = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  size_t plan_cache_size = 0;
  int pool_threads = 0;

  /// Latency breakdown over completed queries (nanosecond quantiles from
  /// the session's always-on histograms): end-to-end, scheduling wait,
  /// execution, and plan resolution.
  obs::HistogramSummary latency;
  obs::HistogramSummary queue_wait;
  obs::HistogramSummary execute;
  obs::HistogramSummary plan_resolve;

  /// Slow-query log totals (recorded entries, including evicted ones).
  uint64_t slow_queries = 0;
  uint64_t stuck_queries = 0;

  /// Serving outcomes: queries killed by their deadline, rejected by the
  /// admission limit, or cancelled (Session::Cancel / disconnect).
  uint64_t deadline_exceeded = 0;
  uint64_t overload_rejected = 0;
  uint64_t cancelled = 0;

  /// Storage-engine attribution for store-backed sessions: the open mode
  /// ("heap" | "mmap"; empty for a caller-owned graph) and the bytes of the
  /// snapshot mapped into this process (mmap mode).
  std::string store_mode;
  uint64_t store_bytes_mapped = 0;
};

namespace detail {
struct SessionQueryState;

/// Number of SessionQueryState instances currently alive (test hook).
/// Async submissions used to leak their state through an on_done <->
/// handle reference cycle; the regression test drives async queries to
/// completion and asserts this count returns to its baseline.
uint64_t LiveQueryStates();
}  // namespace detail

/// A reusable multi-query execution context for one data graph.
///
/// Constructed once per graph, a Session owns everything light::Run
/// rebuilds per call: the persistent WorkerPool (threads parked between
/// queries), the shared read-only BitmapIndex, the graph stats the planner
/// samples, per-worker scratch arenas, and a plan cache keyed by canonical
/// pattern form (isomorphic patterns share one linted plan — counting is
/// invariant under vertex renumbering). Heavy shared state is built lazily:
/// a session that only ever runs serial queries never starts the pool, and
/// the one background thread — the session timer, which fires deadlines
/// and runs the stuck-query watchdog — starts with the first pool query
/// that needs it.
///
/// Every query, whatever the entry point, follows one lifecycle: admit
/// (validate, normalize, stamp id and admit time, count the submission),
/// resolve its plans through the one plan cache, execute them — inline on
/// the caller for serial RunSync, else on the pool — and deliver one
/// RunResult that is counted and logged once. An inclusion–exclusion count
/// is one such query whose K term plans are its parts.
///
/// Thread safety: Submit/RunSync/RunBatch/stats may be called concurrently
/// from any number of caller threads. The graph (and any data_labels /
/// plan override passed per query) must outlive the session; tickets must
/// be waited on before the session is destroyed. Store-backed sessions
/// share ownership of the GraphStore, so the caller may drop its pointer.
///
/// Per-query RunOptions semantics under a session: `threads` caps how many
/// pool workers execute that query concurrently (0 = whole pool; 1 via
/// RunSync runs inline on the caller thread); the bitmap fields are
/// ignored in favor of the session's (see SessionOptions); everything else
/// (time limit, labels, semantics, plan override, lint, report sink) is
/// per query, and the per-query RunReport is filled exactly as by Run.
class Session {
 public:
  /// Blocking future for one submitted query. Move-only; Wait is
  /// idempotent (every call returns the same RunResult).
  class Ticket {
   public:
    Ticket();
    Ticket(Ticket&&) noexcept;
    Ticket& operator=(Ticket&&) noexcept;
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket();

    /// Blocks until the query completes and returns its result (filling
    /// the query's report sink, if any, on first call). Must be called
    /// before the session is destroyed.
    RunResult Wait();

    /// False for a default-constructed (or moved-from) ticket.
    bool valid() const { return state_ != nullptr; }

    /// The submitted query's id (0 for an invalid ticket) — the handle for
    /// Session::Cancel and the key used by trace lanes and reports.
    uint64_t query_id() const;

   private:
    friend class Session;
    explicit Ticket(std::shared_ptr<detail::SessionQueryState> state);
    std::shared_ptr<detail::SessionQueryState> state_;
  };

  explicit Session(const Graph& graph, const SessionOptions& options = {});

  /// Store-backed session: serves queries against a GraphStore snapshot in
  /// whatever mode it was opened (heap or mmap). Multiple Sessions — across
  /// threads — may share one store; they see one mapping and one
  /// lazily-built BitmapIndex per bitmap configuration
  /// (GraphStore::SharedBitmap).
  explicit Session(std::shared_ptr<const GraphStore> store,
                   const SessionOptions& options = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Enqueues one counting query on the pool and returns immediately.
  /// Visitors are unsupported here (streaming is serial and
  /// numbering-sensitive); use RunSync. Errors (validation, plan lint)
  /// surface through Ticket::Wait, never exceptions.
  Ticket Submit(const Pattern& pattern, const RunOptions& options = {});

  /// Non-blocking submit for async callers (the network server): the
  /// callback fires exactly once with the final RunResult — from a pool
  /// worker thread on completion, or inline from this call for
  /// pre-execution failures (validation, lint, admission reject). The
  /// callback must not block for long and must not destroy the session.
  /// Returns the query id (usable with Cancel until the result fires).
  uint64_t SubmitAsync(const Pattern& pattern, const RunOptions& options,
                       std::function<void(const RunResult&)> callback);

  /// Requests cancellation of an in-flight submitted query by id (the
  /// disconnect path). Returns true when the abort was delivered to a
  /// still-running query — its result arrives as `cancelled:` — and false
  /// when the id is unknown or the query already finished.
  bool Cancel(uint64_t query_id) LIGHT_EXCLUDES(cancel_mutex_, init_mutex_);

  /// Convenience: Submit + Wait, except that serial requests
  /// (options.threads == 1 or a visitor) run inline on the calling thread
  /// — the exact one-shot Run code path, so single-query latency matches
  /// Run and visitors see the submitted pattern's own vertex numbering.
  RunResult RunSync(const Pattern& pattern, const RunOptions& options = {});

  /// Submits every pattern (so they run concurrently on the pool) and
  /// waits for all, returning results in input order. The per-query report
  /// sink is ignored for batches (one sink cannot hold N reports).
  std::vector<RunResult> RunBatch(const std::vector<Pattern>& patterns,
                                  const RunOptions& options = {});

  SessionStats stats() const LIGHT_EXCLUDES(stats_mutex_, cache_mutex_);

  /// Fills a light.session_report.v1 document: session/pool aggregates, the
  /// latency breakdown histograms, the retained per-query lifecycle
  /// records, the slow/stuck-query log, and (when the metrics registry is
  /// armed) a counter snapshot. Callable at any point in the session's
  /// life; reflects queries completed so far.
  void FillSessionReport(obs::SessionReport* out) const;

  /// Copy of the slow/stuck-query log (newest last). Entries are recorded
  /// when a query completes above slow_query_threshold_seconds ("slow") or
  /// when the watchdog sees its lease count static across a window
  /// ("stuck").
  std::vector<obs::SlowQueryRecord> slow_queries() const
      LIGHT_EXCLUDES(log_mutex_);

  /// Mode-blind view of the session's data graph.
  const GraphView& view() const { return view_; }

  /// The backing store; null for graph-reference sessions.
  const std::shared_ptr<const GraphStore>& store() const { return store_; }

  /// Resident-adjacency Graph behind the view (the caller's graph, a heap
  /// store's copy, or an mmap store's borrowing facade). Never null.
  const Graph* graph() const { return graph_ptr_; }

 private:
  friend struct detail::SessionQueryState;
  // light::Run runs as a one-query session but reports tool "light::Run".
  friend RunResult Run(const Graph& graph, const Pattern& pattern,
                       const RunOptions& options);

  struct PlanEntry {
    std::shared_ptr<const ExecutionPlan> plan;
    /// The numbering the plan was built for (the first submitter's). Plan
    /// QUALITY is numbering-sensitive — the optimizer places symmetry-
    /// breaking constraints relative to the given numbering — so the cache
    /// keeps the plan Run would have built, not one for the canonical
    /// form; counting is isomorphism-invariant, so it serves every
    /// renumbering of the shape. Lint checks run against this pattern.
    Pattern pattern;
    bool linted = false;
    uint64_t last_used = 0;
  };

  // The query lifecycle every entry point shares: Admit, then Launch
  // (resolve each part's plan, Execute each part), then delivery through
  // SessionQueryState::Finalize, which calls RecordQueryDone.

  /// Validates and normalizes the options, stamps the query id and admit
  /// time, and counts the submission. A validation failure is kept on the
  /// state and delivered like any other result.
  std::shared_ptr<detail::SessionQueryState> Admit(
      const Pattern& pattern, const RunOptions& options, const char* tool,
      std::function<void(const RunResult&)> callback)
      LIGHT_EXCLUDES(stats_mutex_);
  /// Resolves the plans of an admitted query — one per IEP term when the
  /// count strategy picks inclusion–exclusion, else one — and executes
  /// them: inline on the caller thread, or as pool queries sharing the
  /// query's id and admit time (then registered for Cancel and the timer).
  void Launch(const std::shared_ptr<detail::SessionQueryState>& s,
              bool on_pool);
  /// The one plan resolver: a caller-supplied RunOptions::plan (linted,
  /// never cached), else a cache lookup keyed by canonical form (pattern
  /// plans) or exact structure ("iep-term:" keys, when `term` is set), or
  /// no key when caching is off or a visitor is attached; build + lint on
  /// miss, LRU eviction at insert. On lint failure returns null with
  /// `error` set.
  std::shared_ptr<const ExecutionPlan> ResolvePlan(const Pattern& pattern,
                                                   const IepTerm* term,
                                                   const RunOptions& opts,
                                                   std::string* error,
                                                   bool* cache_hit)
      LIGHT_EXCLUDES(cache_mutex_, stats_mutex_);
  /// Plan linter gate (plus the session's bitmap config); `stats` adds the
  /// cardinality rules. False with `error` set on any error finding.
  bool Lint(const Pattern& pattern, const ExecutionPlan& plan,
            const GraphStats* stats, std::string* error) const;
  /// The one executor: runs part `i` of `s` inline (budget anchored at the
  /// query's admit) or submits it to the pool.
  void Execute(const std::shared_ptr<detail::SessionQueryState>& s, size_t i);
  /// Aborts every pool part of `s`; true when an abort was delivered.
  bool Kill(detail::SessionQueryState& s, int reason)
      LIGHT_EXCLUDES(init_mutex_);

  Ticket SubmitInternal(const Pattern& pattern, const RunOptions& options,
                        const char* tool,
                        std::function<void(const RunResult&)> callback);
  RunResult RunSyncWithTool(const Pattern& pattern, const RunOptions& options,
                            const char* tool);
  const BitmapIndex& EnsureBitmap() LIGHT_EXCLUDES(init_mutex_);
  WorkerPool& EnsurePool() LIGHT_EXCLUDES(init_mutex_);

  /// Delivery hook: counts the completion and its outcome; for queries that
  /// ran (`plan` non-null) also observes the lifecycle histograms, appends
  /// the query log record, applies the slow-query threshold, and retires
  /// the cancel and watchdog registrations.
  void RecordQueryDone(const RunResult& result, const Pattern& pattern,
                       const ExecutionPlan* plan)
      LIGHT_EXCLUDES(cancel_mutex_, inflight_mutex_, stats_mutex_, log_mutex_);

  /// The session timer: one thread, started lazily by the first pool query
  /// with a deadline or a watchdog window. It pops a min-heap of {fire
  /// time, query} into Kill (WorkerPool::Cancel -> MultiQueryQueue::Abort)
  /// and, every stuck_query_window_seconds, records queries whose lease
  /// count did not advance across the window.
  void ArmTimer(const std::shared_ptr<detail::SessionQueryState>& s)
      LIGHT_EXCLUDES(timer_mutex_);
  void TimerMain() LIGHT_EXCLUDES(timer_mutex_);
  void ScanStuckQueries(std::vector<MultiQueryQueue::QueryProgress>* prev)
      LIGHT_EXCLUDES(inflight_mutex_, log_mutex_, stats_mutex_);

  /// Shared constructor tail: obs counter resolution.
  void InitCommon();

  // Data-graph identity, fixed at construction. Graph-reference sessions
  // have a null store_ and point graph_ptr_/view_ at the caller's graph;
  // store-backed sessions co-own the store and point at its Graph.
  const std::shared_ptr<const GraphStore> store_;
  const Graph* const graph_ptr_;
  const GraphView view_;
  const SessionOptions options_;

  // Lazily built shared state (each built once under init_mutex_; the
  // pointers are only written there, and every reader goes through the
  // Ensure* accessors, which return stable references to the built objects).
  // The bitmap is a shared_ptr because store-backed sessions borrow it from
  // the store's cross-session cache (GraphStore::SharedBitmap).
  mutable Mutex init_mutex_{lockrank::kSessionInit, "Session::init_mutex_"};
  std::shared_ptr<const BitmapIndex> bitmap_index_
      LIGHT_GUARDED_BY(init_mutex_);
  std::unique_ptr<WorkerPool> pool_ LIGHT_GUARDED_BY(init_mutex_);

  mutable Mutex cache_mutex_{lockrank::kSessionCache, "Session::cache_mutex_"};
  std::unordered_map<std::string, PlanEntry> plan_cache_
      LIGHT_GUARDED_BY(cache_mutex_);
  uint64_t cache_tick_ LIGHT_GUARDED_BY(cache_mutex_) = 0;

  mutable Mutex stats_mutex_{lockrank::kSessionStats, "Session::stats_mutex_"};
  SessionStats session_stats_ LIGHT_GUARDED_BY(stats_mutex_);

  // Session-level attribution (src/obs); incremented only while armed.
  obs::Counter* obs_queries_started_ = nullptr;
  obs::Counter* obs_queries_completed_ = nullptr;
  obs::Counter* obs_cache_hits_ = nullptr;
  obs::Counter* obs_cache_misses_ = nullptr;
  obs::Counter* obs_deadline_exceeded_ = nullptr;
  obs::Counter* obs_overload_rejected_ = nullptr;
  obs::Counter* obs_cancelled_ = nullptr;

  // Always-on lifecycle histograms (lazy per-thread shards keep an idle
  // histogram at a few pointers). Values in nanoseconds. The registry
  // mirrors below are additionally observed while the registry is armed so
  // cross-session dashboards see them.
  obs::Histogram hist_latency_{"session.query_ns"};
  obs::Histogram hist_queue_wait_{"session.queue_wait_ns"};
  obs::Histogram hist_execute_{"session.execute_ns"};
  obs::Histogram hist_plan_{"session.plan_ns"};
  obs::Histogram* obs_latency_hist_ = nullptr;
  obs::Histogram* obs_plan_hist_ = nullptr;

  // Query log + slow/stuck log (capped deques, newest last; the oldest
  // entries are evicted beyond these capacities).
  static constexpr size_t kQueryLogCapacity = 1024;
  static constexpr size_t kSlowQueryLogCapacity = 64;
  mutable Mutex log_mutex_{lockrank::kSessionLog, "Session::log_mutex_"};
  std::deque<obs::SessionQueryRecord> query_log_ LIGHT_GUARDED_BY(log_mutex_);
  std::deque<obs::SlowQueryRecord> slow_log_ LIGHT_GUARDED_BY(log_mutex_);
  std::unordered_set<uint64_t> stuck_reported_ LIGHT_GUARDED_BY(log_mutex_);

  // Watchdog bookkeeping: context for in-flight pool queries (only
  // maintained while the watchdog is on), keyed by query id.
  struct InflightQuery {
    Pattern pattern;
    std::string plan_sigma;
    uint64_t admit_ns = 0;
  };
  mutable Mutex inflight_mutex_{lockrank::kSessionInflight,
                                "Session::inflight_mutex_"};
  std::unordered_map<uint64_t, InflightQuery> inflight_
      LIGHT_GUARDED_BY(inflight_mutex_);

  // Session timer (lazy thread): deadlines on a heap ordered by fire time,
  // plus the watchdog scan. Expired entries whose query already finished
  // resolve to a dead weak_ptr or a no-op Cancel, so completion never has
  // to search the heap.
  struct DeadlineEntry {
    uint64_t fire_ns = 0;
    std::weak_ptr<detail::SessionQueryState> state;
  };
  struct DeadlineLater {
    bool operator()(const DeadlineEntry& a, const DeadlineEntry& b) const {
      return a.fire_ns > b.fire_ns;
    }
  };
  std::thread timer_thread_;
  mutable Mutex timer_mutex_{lockrank::kSessionTimer, "Session::timer_mutex_"};
  CondVar timer_cv_;
  bool timer_stop_ LIGHT_GUARDED_BY(timer_mutex_) = false;
  std::priority_queue<DeadlineEntry, std::vector<DeadlineEntry>,
                      DeadlineLater>
      timer_heap_ LIGHT_GUARDED_BY(timer_mutex_);

  // Cancel index: query id -> live submitted query (pool path only;
  // entries retire when the result is recorded).
  mutable Mutex cancel_mutex_{lockrank::kSessionCancel,
                              "Session::cancel_mutex_"};
  std::unordered_map<uint64_t, std::weak_ptr<detail::SessionQueryState>>
      cancelable_ LIGHT_GUARDED_BY(cancel_mutex_);
};

}  // namespace light

#endif  // LIGHT_LIGHT_H_
