#include "light.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "analysis/plan_linter.h"
#include "pattern/canonical.h"

namespace light {
namespace {

double Limit(double time_limit_seconds) {
  return time_limit_seconds > 0 ? time_limit_seconds
                                : std::numeric_limits<double>::infinity();
}

uint64_t MonotonicNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* AlgorithmName(const PlanOptions& options) {
  if (options.lazy_materialization && options.minimum_set_cover) {
    return "light";
  }
  if (options.lazy_materialization) return "lm";
  if (options.minimum_set_cover) return "msc";
  return "se";
}

/// Metadata + graph dimensions common to every report path.
void FillReportContext(const GraphView& graph, const ExecutionPlan& plan,
                       const EngineStats& stats, const BitmapIndex& index,
                       obs::RunReport* report) {
  *report = obs::RunReport();
  report->tool = "light::Run";
  report->algorithm = AlgorithmName(plan.options);
  report->kernel = KernelName(plan.options.kernel);
  report->graph_vertices = graph.NumVertices();
  report->graph_edges = graph.NumEdges();
  report->bitmap_rows = index.num_rows();
  report->bitmap_memory_bytes = index.empty() ? 0 : index.MemoryBytes();
  obs::FillFromEngine(plan, stats, report);
  obs::SnapshotCounters(report);
}

}  // namespace

Status RunOptions::Validate() const {
  if (threads < 0) {
    return Status::InvalidArgument("threads must be >= 0 (0 = hardware)");
  }
  if (std::isnan(time_limit_seconds) || time_limit_seconds < 0) {
    return Status::InvalidArgument(
        "time_limit_seconds must be >= 0 (0 = unlimited)");
  }
  if (visitor != nullptr && threads > 1) {
    return Status::InvalidArgument(
        "streaming visitor requires threads <= 1: parallel enumeration "
        "with a visitor is unsupported");
  }
  return plan_options.Validate();
}

RunOptions RunOptions::Normalized() const {
  RunOptions o = *this;
  if (o.threads < 0) o.threads = 0;
  // A visitor streams serially; resolve "pick for me" to the serial path.
  // (visitor + threads > 1 is rejected by Validate, never serialized.)
  if (o.visitor != nullptr && o.threads == 0) o.threads = 1;
  if (std::isnan(o.time_limit_seconds) || o.time_limit_seconds < 0) {
    o.time_limit_seconds = 0;
  }
  o.plan_options.symmetry_breaking = o.unique_subgraphs;
  o.plan_options = o.plan_options.Normalized();
  return o;
}

SessionOptions SessionOptions::Normalized() const {
  SessionOptions o = *this;
  o.plan_options = o.plan_options.Normalized();
  return o;
}

uint32_t EffectiveBitmapThreshold(const PlanOptions& options, VertexID n) {
  if (options.bitmap_min_degree == kBitmapDegreeNever) {
    return kBitmapDegreeNever;
  }
  if (options.bitmap_min_degree != kBitmapDegreeAuto) {
    return options.bitmap_min_degree;
  }
  const double density =
      std::isnan(options.bitmap_density) || options.bitmap_density < 0
          ? kDefaultBitmapDensity
          : options.bitmap_density;
  const double degree = std::ceil(density * static_cast<double>(n));
  if (degree >= static_cast<double>(kBitmapDegreeAuto)) {
    return kBitmapDegreeNever;
  }
  return std::max<uint32_t>(1, static_cast<uint32_t>(degree));
}

ExecutionPlan BuildRunPlan(const Graph& graph, const GraphStats& stats,
                           const Pattern& pattern,
                           const RunOptions& options) {
  const RunOptions opts = options.Normalized();
  return BuildPlan(pattern, graph, stats, opts.plan_options);
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

namespace detail {

/// Kill reasons racing CAS-style into SessionQueryState::kill_reason: the
/// first writer decides how an aborted result is classified.
constexpr int kKillNone = 0;
constexpr int kKillDeadline = 1;
constexpr int kKillCancelled = 2;

/// Shared state behind one Ticket: either an immediate (pre-execution)
/// error, or a pool handle plus everything needed to assemble the
/// RunResult and fill the report sink when the pool result lands.
/// Live SessionQueryState instances (test hook): SubmitAsync used to leak
/// every query state through an on_done <-> handle shared_ptr cycle, and the
/// regression test asserts this returns to its baseline after async
/// completions.
std::atomic<uint64_t> g_live_query_states{0};

uint64_t LiveQueryStates() {
  return g_live_query_states.load(std::memory_order_relaxed);
}

struct SessionQueryState {
  SessionQueryState() { g_live_query_states.fetch_add(1); }
  ~SessionQueryState() { g_live_query_states.fetch_sub(1); }

  Session* session = nullptr;
  const char* tool = "light::Session";
  obs::RunReport* report = nullptr;
  const ExecutionPlan* plan = nullptr;
  std::shared_ptr<const ExecutionPlan> plan_holder;
  const BitmapIndex* bitmap_index = nullptr;
  WorkerPool::QueryHandle handle;
  bool has_handle = false;

  // Lifecycle context stamped at submit time (the pool fills the rest of
  // QueryStats; the session layers plan attribution on at finalize).
  Pattern pattern;
  uint64_t query_id = 0;
  uint64_t admit_ns = 0;
  uint64_t plan_ns = 0;
  double time_limit_seconds = 0;  // 0 = unlimited
  bool plan_cache_hit = false;

  /// Why the query was aborted, when it was (deadline timer vs Cancel);
  /// written lock-free by the killer threads before they deliver the
  /// abort, read at finalize to classify the outcome.
  std::atomic<int> kill_reason{kKillNone};

  /// Async completion sink (SubmitAsync); fires exactly once, inside
  /// FinalizeFromPool.
  std::function<void(const RunResult&)> callback;

  Mutex mutex{lockrank::kSessionQueryState, "SessionQueryState::mutex"};
  bool finalized LIGHT_GUARDED_BY(mutex) = false;
  RunResult result LIGHT_GUARDED_BY(mutex);

  /// Maps the pool result into the final RunResult exactly once —
  /// callable from Ticket::Wait (caller thread) and from the pool's
  /// on_done (worker thread); whichever arrives second returns the cached
  /// result. Also fires the async callback and the session bookkeeping on
  /// the winning call.
  RunResult FinalizeFromPool(const ParallelResult& presult)
      LIGHT_EXCLUDES(mutex) {
    MutexLock lock(mutex);
    if (finalized) return result;
    result.num_matches = presult.num_matches;
    result.elapsed_seconds = presult.elapsed_seconds;
    result.timed_out = presult.timed_out;
    result.query_stats = presult.lifecycle;
    result.query_stats.plan_ns = plan_ns;
    result.query_stats.plan_cache_hit = plan_cache_hit;
    if (presult.rejected) {
      result.outcome = QueryOutcome::kOverloadRejected;
      result.error = std::string(kOverloadRejectedPrefix) +
                     " session admission limit reached";
    } else if (presult.aborted || presult.timed_out) {
      // An abort with no recorded reason is the enumerator tripping the
      // wall-clock budget itself — the same deadline, enforced from
      // inside a range instead of by the timer thread.
      if (kill_reason.load(std::memory_order_acquire) == kKillCancelled) {
        result.outcome = QueryOutcome::kCancelled;
        result.error =
            std::string(kCancelledPrefix) + " query aborted before completion";
      } else {
        result.outcome = QueryOutcome::kDeadlineExceeded;
        result.timed_out = true;
        result.error = std::string(kDeadlineExceededPrefix) +
                       " wall-clock budget of " +
                       std::to_string(time_limit_seconds) +
                       "s elapsed before completion (partial count retained)";
      }
    }
    if (report != nullptr && plan != nullptr) {
      FillReportContext(session->view(), *plan, presult.stats,
                        *bitmap_index, report);
      report->tool = tool;
      report->elapsed_seconds = presult.elapsed_seconds;
      report->workers = presult.workers;
      report->summary = obs::SummarizeWorkers(presult.workers);
    }
    finalized = true;
    session->RecordQueryDone(result, pattern, plan);
    session->OnResultDelivered();
    if (callback) {
      // Fire under the state lock: the callback sees the final result and
      // a second finalize attempt can never overtake it.
      callback(result);
      callback = nullptr;
    }
    return result;
  }

  RunResult Wait() LIGHT_EXCLUDES(mutex) {
    {
      MutexLock lock(mutex);
      if (finalized) return result;
      if (!has_handle) {
        // Immediate pre-execution error: nothing ran, deliver as-is.
        finalized = true;
        session->OnResultDelivered();
        return result;
      }
    }
    // Block outside the state lock — the pool's on_done path (async
    // submits) takes it to finalize and must not deadlock against us.
    const ParallelResult presult = handle.Wait();
    return FinalizeFromPool(presult);
  }
};

}  // namespace detail

Session::Ticket::Ticket() = default;
Session::Ticket::Ticket(Ticket&&) noexcept = default;
Session::Ticket& Session::Ticket::operator=(Ticket&&) noexcept = default;
Session::Ticket::~Ticket() = default;
Session::Ticket::Ticket(std::shared_ptr<detail::SessionQueryState> state)
    : state_(std::move(state)) {}

RunResult Session::Ticket::Wait() { return state_->Wait(); }

uint64_t Session::Ticket::query_id() const {
  return state_ != nullptr ? state_->query_id : 0;
}

Session::Session(const Graph& graph, const SessionOptions& options)
    : store_(nullptr),
      graph_ptr_(&graph),
      view_(graph),
      options_(options.Normalized()) {
  InitCommon();
}

Session::Session(std::shared_ptr<const GraphStore> store,
                 const SessionOptions& options)
    : store_(std::move(store)),
      graph_ptr_(store_->graph()),
      view_(store_->view()),
      options_(options.Normalized()) {
  InitCommon();
}

void Session::InitCommon() {
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  obs_queries_started_ = registry.GetCounter("session.queries_started");
  obs_queries_completed_ = registry.GetCounter("session.queries_completed");
  obs_cache_hits_ = registry.GetCounter("session.plan_cache_hit");
  obs_cache_misses_ = registry.GetCounter("session.plan_cache_miss");
  obs_deadline_exceeded_ = registry.GetCounter("session.deadline_exceeded");
  obs_overload_rejected_ = registry.GetCounter("session.overload_rejected");
  obs_cancelled_ = registry.GetCounter("session.cancelled");
  obs_latency_hist_ = registry.GetHistogram("session.query_ns");
  obs_plan_hist_ = registry.GetHistogram("session.plan_ns");
  if (options_.stuck_query_window_seconds > 0) {
    watchdog_ = std::thread(&Session::WatchdogMain, this);
  }
}

Session::~Session() {
  if (watchdog_.joinable()) {
    {
      MutexLock lock(watchdog_mutex_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.NotifyAll();
    watchdog_.join();
  }
  if (deadline_thread_.joinable()) {
    {
      MutexLock lock(deadline_mutex_);
      deadline_stop_ = true;
    }
    deadline_cv_.NotifyAll();
    deadline_thread_.join();
  }
  // Drain the pool while the session's logs/histograms are still alive:
  // async submissions finalize from worker threads during this teardown
  // and touch session members that would otherwise already be destroyed.
  std::unique_ptr<WorkerPool> pool;
  {
    MutexLock lock(init_mutex_);
    pool = std::move(pool_);
  }
  pool.reset();
}

const GraphStats& Session::EnsureStats() {
  MutexLock lock(init_mutex_);
  if (graph_stats_ == nullptr) {
    obs::TraceSpan span("graph_stats");
    graph_stats_ = std::make_unique<GraphStats>(
        ComputeGraphStats(view_, /*count_triangles=*/true));
  }
  return *graph_stats_;
}

const BitmapIndex& Session::EnsureBitmap() {
  MutexLock lock(init_mutex_);
  if (bitmap_index_ == nullptr) {
    const uint32_t threshold =
        EffectiveBitmapThreshold(options_.plan_options, view_.NumVertices());
    if (threshold == kBitmapDegreeNever) {
      bitmap_index_ = std::make_shared<const BitmapIndex>();
    } else {
      BitmapIndexOptions build_options;
      build_options.min_degree = threshold;
      build_options.max_bytes = options_.plan_options.bitmap_max_bytes;
      if (store_ != nullptr) {
        // Cross-session sharing: every Session on this store with the same
        // bitmap configuration gets one index (init 20 -> store bitmap 54).
        bitmap_index_ = store_->SharedBitmap(build_options);
      } else {
        obs::TraceSpan span("bitmap_index");
        bitmap_index_ = std::make_shared<const BitmapIndex>(
            BitmapIndex::Build(view_, build_options));
      }
    }
  }
  return *bitmap_index_;
}

WorkerPool& Session::EnsurePool() {
  MutexLock lock(init_mutex_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<WorkerPool>(options_.threads);
    if (options_.max_pending_queries > 0) {
      pool_->SetMaxOpenQueries(options_.max_pending_queries);
    }
  }
  return *pool_;
}

void Session::OnResultDelivered() {
  {
    MutexLock lock(stats_mutex_);
    ++session_stats_.queries_completed;
  }
  if (obs::MetricsEnabled()) obs_queries_completed_->Inc();
}

std::shared_ptr<const ExecutionPlan> Session::ResolvePlan(
    const Pattern& pattern, const RunOptions& opts, std::string* error,
    bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  // Lint against the pattern the plan was built for: the linter checks the
  // plan's wiring vertex-by-vertex, so a cached plan is checked against the
  // numbering it was built for (the first submitter's), not this query's.
  const auto lint = [&](const Pattern& plan_pattern, const ExecutionPlan& plan,
                        const GraphStats* stats) -> bool {
    obs::TraceSpan span("plan_lint");
    analysis::LintOptions lint_options;
    if (stats != nullptr) {
      lint_options.cardinality = analysis::AnalyticCardinalityFn(*stats);
    }
    analysis::LintReport report =
        analysis::LintPlan(plan_pattern, plan, lint_options);
    analysis::LintBitmapConfig(options_.plan_options.bitmap_min_degree,
                               options_.plan_options.bitmap_density,
                               options_.plan_options.bitmap_max_bytes, &report);
    if (!report.ok()) {
      *error = "plan lint failed:\n" + report.ToString();
      return false;
    }
    return true;
  };

  const bool cache_enabled =
      options_.plan_cache_capacity > 0 && opts.visitor == nullptr;
  if (!cache_enabled) {
    // One-shot regime (what light::Run uses, and every visitor query):
    // build a plan for the submitted numbering, no canonicalization.
    const GraphStats& stats = EnsureStats();
    auto plan = std::make_shared<ExecutionPlan>([&] {
      obs::TraceSpan span("build_plan");
      return BuildRunPlan(*graph_ptr_, stats, pattern, opts);
    }());
    if (opts.lint_plan && !lint(pattern, *plan, &stats)) return nullptr;
    return plan;
  }

  // Two patterns share a cached plan only when canonical shape AND the
  // plan-shaping options agree (unique_subgraphs is already folded into
  // plan_options.symmetry_breaking by Normalized, so CacheKey covers it).
  const CanonicalForm form = Canonicalize(pattern);
  std::string key = form.Key();
  key += opts.plan_options.CacheKey();

  bool hit = false;
  bool linted = false;
  std::shared_ptr<const ExecutionPlan> plan;
  Pattern plan_pattern;  // the numbering the cached plan was built for
  {
    MutexLock lock(cache_mutex_);
    auto it = plan_cache_.find(key);
    if (it != plan_cache_.end()) {
      it->second.last_used = ++cache_tick_;
      hit = true;
      linted = it->second.linted;
      plan = it->second.plan;
      plan_pattern = it->second.pattern;
    }
  }

  if (hit) {
    if (cache_hit != nullptr) *cache_hit = true;
    {
      MutexLock lock(stats_mutex_);
      ++session_stats_.plan_cache_hits;
    }
    if (obs::MetricsEnabled()) obs_cache_hits_->Inc();
    if (opts.lint_plan && !linted) {
      // Inserted by a lint-off query; this query wants the gate. Lint now
      // and remember so the check runs at most once per entry.
      const GraphStats& stats = EnsureStats();
      if (!lint(plan_pattern, *plan, &stats)) return nullptr;
      MutexLock lock(cache_mutex_);
      auto it = plan_cache_.find(key);
      if (it != plan_cache_.end()) it->second.linted = true;
    }
    return plan;
  }

  {
    MutexLock lock(stats_mutex_);
    ++session_stats_.plan_cache_misses;
  }
  if (obs::MetricsEnabled()) obs_cache_misses_->Inc();

  // Build + lint outside the cache lock (both are the expensive part, and
  // concurrent misses of the same key must not serialize on it). The plan
  // is built for the SUBMITTED numbering — exactly the plan one-shot Run
  // would produce — not the canonical form: plan quality is numbering-
  // sensitive (symmetry-breaking constraint placement), while the count is
  // isomorphism-invariant, so the first submitter's plan safely serves
  // every later renumbering that hits this key.
  const GraphStats& stats = EnsureStats();
  auto built = std::make_shared<ExecutionPlan>([&] {
    obs::TraceSpan span("build_plan");
    return BuildRunPlan(*graph_ptr_, stats, pattern, opts);
  }());
  if (opts.lint_plan && !lint(pattern, *built, &stats)) return nullptr;

  {
    MutexLock lock(cache_mutex_);
    auto it = plan_cache_.find(key);
    if (it != plan_cache_.end()) {
      // Lost an insert race: exactly one entry per key — keep the winner's
      // plan (this query still runs its own identical build).
      it->second.last_used = ++cache_tick_;
    } else {
      PlanEntry entry;
      entry.plan = built;
      entry.pattern = pattern;
      entry.linted = opts.lint_plan;
      entry.last_used = ++cache_tick_;
      plan_cache_.emplace(std::move(key), std::move(entry));
      while (plan_cache_.size() > options_.plan_cache_capacity) {
        auto victim = plan_cache_.begin();
        for (auto walk = plan_cache_.begin(); walk != plan_cache_.end();
             ++walk) {
          if (walk->second.last_used < victim->second.last_used) {
            victim = walk;
          }
        }
        plan_cache_.erase(victim);  // in-flight queries hold shared_ptrs
      }
    }
  }
  return built;
}

Session::Ticket Session::SubmitInternal(
    const Pattern& pattern, const RunOptions& options, const char* tool,
    std::function<void(const RunResult&)> callback) {
  auto state = std::make_shared<detail::SessionQueryState>();
  state->session = this;
  state->tool = tool;
  state->report = options.report;
  state->pattern = pattern;
  state->query_id = obs::NextQueryId();
  state->admit_ns = MonotonicNs();
  {
    MutexLock lock(stats_mutex_);
    ++session_stats_.queries_submitted;
  }
  if (obs::MetricsEnabled()) obs_queries_started_->Inc();

  // Pre-execution failures resolve inline: the ticket is born finalized
  // enough for Wait, and an async callback fires before returning.
  const auto immediate_error = [&](std::string error) {
    state->result.error = std::move(error);
    state->result.outcome = QueryOutcome::kError;
    if (callback) {
      MutexLock lock(state->mutex);
      state->finalized = true;
      OnResultDelivered();
      callback(state->result);
    }
    return Ticket(std::move(state));
  };

  if (const Status status = options.Validate(); !status.ok()) {
    return immediate_error(status.ToString());
  }
  if (options.visitor != nullptr) {
    return immediate_error(
        "Session::Submit does not support visitors (streaming is serial "
        "and vertex-numbering-sensitive); use Session::RunSync");
  }
  const RunOptions opts = options.Normalized();
  state->time_limit_seconds = opts.time_limit_seconds;

  const uint64_t plan_start_ns = MonotonicNs();
  const ExecutionPlan* plan = opts.plan;
  if (plan != nullptr) {
    // Caller-supplied plan: no caching; structural lint only (no stats).
    if (opts.lint_plan) {
      obs::TraceSpan span("plan_lint");
      analysis::LintReport lint =
          analysis::LintPlan(pattern, *plan, analysis::LintOptions{});
      analysis::LintBitmapConfig(options_.plan_options.bitmap_min_degree,
                                 options_.plan_options.bitmap_density,
                                 options_.plan_options.bitmap_max_bytes, &lint);
      if (!lint.ok()) {
        return immediate_error("plan lint failed:\n" + lint.ToString());
      }
    }
  } else {
    std::string error;
    state->plan_holder =
        ResolvePlan(pattern, opts, &error, &state->plan_cache_hit);
    if (state->plan_holder == nullptr) {
      return immediate_error(std::move(error));
    }
    plan = state->plan_holder.get();
  }
  state->plan = plan;
  state->plan_ns = MonotonicNs() - plan_start_ns;

  const BitmapIndex& bitmap = EnsureBitmap();
  state->bitmap_index = &bitmap;

  WorkerPool::QuerySpec spec;
  spec.graph = view_;
  spec.plan = plan;
  spec.data_labels = opts.data_labels;
  spec.bitmap_index = &bitmap;
  spec.plan_holder = state->plan_holder;
  spec.options.num_threads = opts.threads;  // 0 = the whole pool
  spec.options.time_limit_seconds = Limit(opts.time_limit_seconds);
  spec.priority = opts.priority;
  spec.query_id = state->query_id;
  spec.admit_ns = state->admit_ns;
  if (callback) {
    state->callback = std::move(callback);
    // Push-style completion: the pool's finalizer (worker thread, or
    // Submit itself for immediate completions) drives FinalizeFromPool.
    // The captured shared_ptr keeps the state alive until then.
    std::shared_ptr<detail::SessionQueryState> self = state;
    spec.on_done = [self](const ParallelResult& presult) {
      self->FinalizeFromPool(presult);
    };
  }
  if (options_.stuck_query_window_seconds > 0) {
    // Register with the watchdog before the pool can start (so a query
    // stuck from its very first range still has context on record).
    InflightQuery info;
    info.pattern = pattern;
    info.plan_sigma = obs::PlanSigmaString(*plan);
    info.admit_ns = state->admit_ns;
    MutexLock lock(inflight_mutex_);
    inflight_.emplace(state->query_id, std::move(info));
  }
  state->handle = EnsurePool().Submit(spec);
  state->has_handle = true;
  {
    // Cancel index entry after the handle exists (Cancel dereferences it;
    // cancel_mutex_ publishes the write). Callers can only know this id
    // once SubmitInternal returned, so nothing is missed. Retired by
    // RecordQueryDone — which can already have run for queries the pool
    // finalized inline (admission reject, empty graph, async callback):
    // registering those here would leave a dead entry in the map forever,
    // so the finalized check under the state lock closes that race.
    MutexLock state_lock(state->mutex);
    if (!state->finalized) {
      MutexLock lock(cancel_mutex_);
      cancelable_.emplace(state->query_id, state);
    }
  }
  // Wall-clock deadline, anchored at admit: plan build above already
  // consumed budget. Registration after Submit keeps the timer from
  // firing on a handle that does not exist yet; an already-expired
  // deadline fires on the timer's next pass.
  if (opts.time_limit_seconds > 0) {
    const uint64_t budget_ns =
        static_cast<uint64_t>(opts.time_limit_seconds * 1e9);
    RegisterDeadline(state->admit_ns + budget_ns, state);
  }
  return Ticket(std::move(state));
}

Session::Ticket Session::Submit(const Pattern& pattern,
                                const RunOptions& options) {
  return SubmitInternal(pattern, options, "light::Session", nullptr);
}

uint64_t Session::SubmitAsync(const Pattern& pattern,
                              const RunOptions& options,
                              std::function<void(const RunResult&)> callback) {
  Ticket ticket =
      SubmitInternal(pattern, options, "light::Session", std::move(callback));
  // The callback owns delivery; the ticket is only a vehicle for the id.
  return ticket.state_->query_id;
}

bool Session::Cancel(uint64_t query_id) {
  std::shared_ptr<detail::SessionQueryState> state;
  {
    MutexLock lock(cancel_mutex_);
    auto it = cancelable_.find(query_id);
    if (it != cancelable_.end()) state = it->second.lock();
  }
  if (state == nullptr) return false;
  int expected = detail::kKillNone;
  state->kill_reason.compare_exchange_strong(expected, detail::kKillCancelled,
                                             std::memory_order_acq_rel);
  WorkerPool* pool = nullptr;
  {
    MutexLock lock(init_mutex_);
    pool = pool_.get();
  }
  return pool != nullptr && state->has_handle && pool->Cancel(state->handle);
}

RunResult Session::RunSerial(const Pattern& pattern, const RunOptions& opts,
                             const char* tool) {
  RunResult result;
  obs::QueryStats& qstats = result.query_stats;
  qstats.query_id = obs::NextQueryId();
  const uint64_t admit_ns = MonotonicNs();

  const ExecutionPlan* plan = opts.plan;
  std::shared_ptr<const ExecutionPlan> holder;
  if (plan == nullptr) {
    std::string error;
    holder = ResolvePlan(pattern, opts, &error, &qstats.plan_cache_hit);
    if (holder == nullptr) {
      result.error = std::move(error);
      result.outcome = QueryOutcome::kError;
      return result;
    }
    plan = holder.get();
  } else if (opts.lint_plan) {
    obs::TraceSpan span("plan_lint");
    analysis::LintReport lint =
        analysis::LintPlan(pattern, *plan, analysis::LintOptions{});
    analysis::LintBitmapConfig(options_.plan_options.bitmap_min_degree,
                               options_.plan_options.bitmap_density,
                               options_.plan_options.bitmap_max_bytes, &lint);
    if (!lint.ok()) {
      result.error = "plan lint failed:\n" + lint.ToString();
      result.outcome = QueryOutcome::kError;
      return result;
    }
  }
  qstats.plan_ns = MonotonicNs() - admit_ns;

  const BitmapIndex& bitmap = EnsureBitmap();
  Enumerator enumerator(view_, *plan, opts.data_labels);
  enumerator.SetBitmapIndex(&bitmap);
  // The budget is anchored at admit: plan resolution above already
  // consumed part of it, so the limit a query observes is true wall clock
  // from entry, matching the pool path. (Serial OOT keeps the classic
  // timed_out-no-error contract; see RunOptions::time_limit_seconds.)
  double limit = Limit(opts.time_limit_seconds);
  if (std::isfinite(limit)) {
    limit -= static_cast<double>(MonotonicNs() - admit_ns) * 1e-9;
  }
  enumerator.SetTimeLimit(limit);
  const uint64_t exec_start_ns = MonotonicNs();
  result.num_matches = opts.visitor != nullptr
                           ? enumerator.Enumerate(opts.visitor)
                           : enumerator.Count();
  result.elapsed_seconds = enumerator.stats().elapsed_seconds;
  result.timed_out = enumerator.stats().timed_out;
  const uint64_t done_ns = MonotonicNs();
  // Inline execution: no scheduling wait, the caller thread is the worker.
  qstats.execute_ns = done_ns - exec_start_ns;
  qstats.busy_ns = qstats.execute_ns;
  qstats.total_ns = done_ns - admit_ns;
  qstats.ranges_executed = 1;
  if (opts.report != nullptr) {
    FillReportContext(view_, *plan, enumerator.stats(), bitmap, opts.report);
    opts.report->tool = tool;
    opts.report->summary.threads_configured = 1;
    opts.report->summary.threads_used = 1;
    opts.report->summary.load_imbalance = 1.0;
  }
  RecordQueryDone(result, pattern, plan);
  return result;
}

std::shared_ptr<const ExecutionPlan> Session::ResolveIepTermPlan(
    const IepTerm& term, const RunOptions& opts, const std::string& base_key,
    std::string* error) {
  const auto lint = [&](const ExecutionPlan& plan) -> bool {
    obs::TraceSpan span("plan_lint");
    analysis::LintReport report =
        analysis::LintPlan(term.pattern, plan, analysis::LintOptions{});
    if (!report.ok()) {
      *error = "iep term plan lint failed:\n" + report.ToString();
      return false;
    }
    return true;
  };
  const GraphStats& stats = EnsureStats();
  const auto build = [&] {
    obs::TraceSpan span("build_plan");
    return BuildIepTermPlan(term, *graph_ptr_, stats, opts.plan_options);
  };

  if (options_.plan_cache_capacity == 0) {
    auto plan = std::make_shared<ExecutionPlan>(build());
    if (opts.lint_plan && !lint(*plan)) return nullptr;
    return plan;
  }

  // Exact-structure key (pattern ToString + labels + tail size): unlike
  // ResolvePlan there is no canonicalization — two isomorphic submissions
  // with different numberings decompose differently, and their term plans
  // must not mix.
  std::string key = "iep-term:" + base_key + "|" + term.pattern.ToString();
  for (int u = 0; u < term.pattern.NumVertices(); ++u) {
    key += ":" + std::to_string(term.pattern.Label(u));
  }
  key += "|t" + std::to_string(term.counted_tail.size());
  key += opts.plan_options.CacheKey();

  {
    MutexLock lock(cache_mutex_);
    auto it = plan_cache_.find(key);
    if (it != plan_cache_.end()) {
      it->second.last_used = ++cache_tick_;
      // Exact-key entries are linted at insert when any submitter lints;
      // the lint-once upgrade dance of ResolvePlan is skipped for terms.
      return it->second.plan;
    }
  }
  auto built = std::make_shared<ExecutionPlan>(build());
  if (opts.lint_plan && !lint(*built)) return nullptr;
  {
    MutexLock lock(cache_mutex_);
    auto it = plan_cache_.find(key);
    if (it == plan_cache_.end()) {
      PlanEntry entry;
      entry.plan = built;
      entry.pattern = term.pattern;
      entry.linted = opts.lint_plan;
      entry.last_used = ++cache_tick_;
      plan_cache_.emplace(std::move(key), std::move(entry));
      while (plan_cache_.size() > options_.plan_cache_capacity) {
        auto victim = plan_cache_.begin();
        for (auto walk = plan_cache_.begin(); walk != plan_cache_.end();
             ++walk) {
          if (walk->second.last_used < victim->second.last_used) victim = walk;
        }
        plan_cache_.erase(victim);
      }
    } else {
      it->second.last_used = ++cache_tick_;
    }
  }
  return built;
}

RunResult Session::RunIep(const Pattern& pattern, const IepDecomposition& dec,
                          const RunOptions& opts, const char* tool) {
  RunResult result;
  obs::QueryStats& qstats = result.query_stats;
  qstats.query_id = obs::NextQueryId();
  const uint64_t admit_ns = MonotonicNs();
  {
    MutexLock lock(stats_mutex_);
    ++session_stats_.queries_submitted;
  }
  if (obs::MetricsEnabled()) obs_queries_started_->Inc();

  // One counted-tail plan per surviving term, resolved up front so a lint
  // failure aborts before any counting work.
  std::string base_key = pattern.ToString();
  for (int u = 0; u < pattern.NumVertices(); ++u) {
    base_key += ":" + std::to_string(pattern.Label(u));
  }
  std::vector<std::shared_ptr<const ExecutionPlan>> plans;
  plans.reserve(dec.terms.size());
  for (const IepTerm& term : dec.terms) {
    std::string error;
    auto plan = ResolveIepTermPlan(term, opts, base_key, &error);
    if (plan == nullptr) {
      result.error = std::move(error);
      result.outcome = QueryOutcome::kError;
      RecordQueryDone(result, pattern, nullptr);
      OnResultDelivered();
      return result;
    }
    plans.push_back(std::move(plan));
  }
  qstats.plan_ns = MonotonicNs() - admit_ns;

  const BitmapIndex& bitmap = EnsureBitmap();
  const uint64_t exec_start_ns = MonotonicNs();
  __int128 total = 0;
  bool timed_out = false;
  EngineStats agg;
  if (opts.threads == 1) {
    // Inline term loop, sharing one wall-clock budget anchored at admit.
    const double limit = Limit(opts.time_limit_seconds);
    for (size_t i = 0; i < dec.terms.size() && !timed_out; ++i) {
      Enumerator enumerator(view_, *plans[i], opts.data_labels);
      enumerator.SetBitmapIndex(&bitmap);
      double remaining = limit;
      if (std::isfinite(limit)) {
        remaining = limit - static_cast<double>(MonotonicNs() - admit_ns) * 1e-9;
      }
      enumerator.SetTimeLimit(remaining);
      const uint64_t count = enumerator.Count();
      agg.Add(enumerator.stats());
      timed_out = enumerator.stats().timed_out;
      total += static_cast<__int128>(dec.terms[i].coefficient) *
               static_cast<__int128>(count);
    }
  } else {
    // Pool path: each term is its own plan-override query (the term plans
    // stay alive in `plans` across the waits). Term plans are linted above;
    // skip the per-submit structural relint.
    std::vector<Ticket> tickets;
    tickets.reserve(dec.terms.size());
    for (size_t i = 0; i < dec.terms.size(); ++i) {
      RunOptions term_opts = opts;
      term_opts.plan = plans[i].get();
      term_opts.report = nullptr;
      term_opts.lint_plan = false;
      term_opts.unique_subgraphs = false;
      term_opts.plan_options.count_strategy = CountStrategy::kEnumerate;
      tickets.push_back(
          SubmitInternal(dec.terms[i].pattern, term_opts, tool, nullptr));
    }
    for (size_t i = 0; i < tickets.size(); ++i) {
      const RunResult term_result = tickets[i].Wait();
      if (!term_result.ok() && !term_result.timed_out) {
        result.error = term_result.error;
        result.outcome = term_result.outcome;
        RecordQueryDone(result, pattern, plans[i].get());
        OnResultDelivered();
        return result;
      }
      timed_out = timed_out || term_result.timed_out;
      total += static_cast<__int128>(dec.terms[i].coefficient) *
               static_cast<__int128>(term_result.num_matches);
    }
  }

  // The signed sum is exact for complete runs; a timeout leaves a partial
  // (possibly negative) sum — clamp, keep timed_out, like partial counts.
  if (total < 0) total = 0;
  uint64_t matches = static_cast<uint64_t>(total);
  if (opts.unique_subgraphs && dec.automorphism_count > 1) {
    matches /= dec.automorphism_count;
  }
  result.num_matches = matches;
  // Classic timed_out-no-error contract (see RunSerial): a partial signed
  // sum is delivered with the flag set; pool-path term queries already
  // recorded their own deadline outcomes.
  result.timed_out = timed_out;
  const uint64_t done_ns = MonotonicNs();
  result.elapsed_seconds = static_cast<double>(done_ns - exec_start_ns) * 1e-9;
  qstats.execute_ns = done_ns - exec_start_ns;
  qstats.busy_ns = qstats.execute_ns;
  qstats.total_ns = done_ns - admit_ns;
  qstats.ranges_executed = dec.terms.size();
  if (opts.report != nullptr && !plans.empty()) {
    FillReportContext(view_, *plans[0], agg, bitmap, opts.report);
    opts.report->tool = tool;
    opts.report->elapsed_seconds = result.elapsed_seconds;
    // `agg` holds the raw per-term engine work (its num_matches is the
    // unsigned sum over terms); the report's answer must be the combined
    // signed count the caller sees.
    opts.report->num_matches = result.num_matches;
  }
  RecordQueryDone(result, pattern, plans.empty() ? nullptr : plans[0].get());
  OnResultDelivered();
  return result;
}

RunResult Session::RunSyncWithTool(const Pattern& pattern,
                                   const RunOptions& options,
                                   const char* tool) {
  if (const Status status = options.Validate(); !status.ok()) {
    RunResult result;
    result.error = status.ToString();
    result.outcome = QueryOutcome::kError;
    return result;
  }
  const RunOptions opts = options.Normalized();
  if (opts.plan_options.count_strategy != CountStrategy::kEnumerate &&
      opts.visitor == nullptr && !opts.plan_options.induced &&
      opts.plan == nullptr) {
    // Counting-only query with IEP requested (or auto): decompose, and take
    // the IEP path when the decomposition exists and — under kAuto — the
    // tail is big enough to plausibly pay for the extra term queries.
    const IepDecomposition dec = BuildIepDecomposition(pattern);
    const bool use_iep =
        dec.valid() &&
        (opts.plan_options.count_strategy == CountStrategy::kIep ||
         dec.tail.size() >= 2);
    if (use_iep) return RunIep(pattern, dec, opts, tool);
  }
  if (opts.threads == 1) {
    // Serial queries run inline on the caller thread — the one-shot Run
    // code path, with no pool involvement (and exact visitor semantics).
    {
      MutexLock lock(stats_mutex_);
      ++session_stats_.queries_submitted;
    }
    if (obs::MetricsEnabled()) obs_queries_started_->Inc();
    RunResult result = RunSerial(pattern, opts, tool);
    OnResultDelivered();
    return result;
  }
  return SubmitInternal(pattern, opts, tool, nullptr).Wait();
}

RunResult Session::RunSync(const Pattern& pattern, const RunOptions& options) {
  return RunSyncWithTool(pattern, options, "light::Session");
}

std::vector<RunResult> Session::RunBatch(const std::vector<Pattern>& patterns,
                                         const RunOptions& options) {
  RunOptions opts = options;
  opts.report = nullptr;  // one sink cannot hold N reports
  std::vector<Ticket> tickets;
  tickets.reserve(patterns.size());
  for (const Pattern& pattern : patterns) {
    tickets.push_back(
        SubmitInternal(pattern, opts, "light::Session", nullptr));
  }
  std::vector<RunResult> results;
  results.reserve(tickets.size());
  for (Ticket& ticket : tickets) results.push_back(ticket.Wait());
  return results;
}

SessionStats Session::stats() const {
  SessionStats out;
  {
    MutexLock lock(stats_mutex_);
    out = session_stats_;
  }
  {
    MutexLock lock(cache_mutex_);
    out.plan_cache_size = plan_cache_.size();
  }
  {
    MutexLock lock(init_mutex_);
    out.pool_threads = pool_ == nullptr ? 0 : pool_->num_threads();
  }
  out.latency = obs::HistogramSummary::FromSnapshot(hist_latency_.Snap());
  out.queue_wait = obs::HistogramSummary::FromSnapshot(hist_queue_wait_.Snap());
  out.execute = obs::HistogramSummary::FromSnapshot(hist_execute_.Snap());
  out.plan_resolve = obs::HistogramSummary::FromSnapshot(hist_plan_.Snap());
  if (store_ != nullptr) {
    out.store_mode = GraphStore::ModeName(store_->mode());
    out.store_bytes_mapped = store_->bytes_mapped();
  }
  return out;
}

void Session::RecordQueryDone(const RunResult& result, const Pattern& pattern,
                              const ExecutionPlan* plan) {
  const obs::QueryStats& qstats = result.query_stats;
  UnregisterQuery(qstats.query_id);
  if (options_.stuck_query_window_seconds > 0) {
    MutexLock lock(inflight_mutex_);
    inflight_.erase(qstats.query_id);
  }
  switch (result.outcome) {
    case QueryOutcome::kDeadlineExceeded: {
      MutexLock lock(stats_mutex_);
      ++session_stats_.deadline_exceeded;
    }
      if (obs::MetricsEnabled()) obs_deadline_exceeded_->Inc();
      break;
    case QueryOutcome::kOverloadRejected: {
      MutexLock lock(stats_mutex_);
      ++session_stats_.overload_rejected;
    }
      if (obs::MetricsEnabled()) obs_overload_rejected_->Inc();
      break;
    case QueryOutcome::kCancelled: {
      MutexLock lock(stats_mutex_);
      ++session_stats_.cancelled;
    }
      if (obs::MetricsEnabled()) obs_cancelled_->Inc();
      break;
    case QueryOutcome::kOk:
    case QueryOutcome::kError:
      break;
  }
  hist_latency_.Observe(qstats.total_ns);
  hist_queue_wait_.Observe(qstats.queue_wait_ns);
  hist_execute_.Observe(qstats.execute_ns);
  hist_plan_.Observe(qstats.plan_ns);
  if (obs::MetricsEnabled()) {
    obs_latency_hist_->Observe(qstats.total_ns);
    obs_plan_hist_->Observe(qstats.plan_ns);
  }

  obs::SessionQueryRecord record;
  record.stats = qstats;
  record.pattern = FormatPattern(pattern);
  record.num_matches = result.num_matches;
  record.ok = result.ok();
  record.timed_out = result.timed_out;

  const double latency_seconds = static_cast<double>(qstats.total_ns) / 1e9;
  const bool slow = options_.slow_query_threshold_seconds > 0 &&
                    latency_seconds >= options_.slow_query_threshold_seconds;
  {
    MutexLock lock(log_mutex_);
    query_log_.push_back(std::move(record));
    while (query_log_.size() > options_.query_log_capacity) {
      query_log_.pop_front();
    }
    if (slow) {
      obs::SlowQueryRecord entry;
      entry.kind = "slow";
      entry.query_id = qstats.query_id;
      entry.pattern = FormatPattern(Canonicalize(pattern).pattern);
      if (plan != nullptr) entry.plan_sigma = obs::PlanSigmaString(*plan);
      entry.latency_seconds = latency_seconds;
      entry.ranges_executed = qstats.ranges_executed;
      slow_log_.push_back(std::move(entry));
      while (slow_log_.size() > options_.slow_query_log_capacity) {
        slow_log_.pop_front();
      }
    }
  }
  if (slow) {
    MutexLock lock(stats_mutex_);
    ++session_stats_.slow_queries;
  }
}

void Session::WatchdogMain() {
  const auto window =
      std::chrono::duration<double>(options_.stuck_query_window_seconds);
  std::vector<MultiQueryQueue::QueryProgress> prev;
  MutexLock lock(watchdog_mutex_);
  while (!watchdog_stop_) {
    // Sleep one full window, re-waiting across spurious wakeups, unless the
    // destructor sets watchdog_stop_ first.
    const auto deadline = std::chrono::steady_clock::now() + window;
    while (!watchdog_stop_ &&
           std::chrono::steady_clock::now() < deadline) {
      watchdog_cv_.WaitUntil(lock, deadline);
    }
    if (watchdog_stop_) break;
    // The snapshot pass must not hold watchdog_mutex_: it takes init_mutex_
    // and the queue/log/stats locks, which rank below it.
    lock.Unlock();
    WorkerPool* pool = nullptr;
    {
      MutexLock init_lock(init_mutex_);
      pool = pool_.get();
    }
    if (pool != nullptr) {
      std::vector<MultiQueryQueue::QueryProgress> curr =
          pool->SnapshotQueryProgress();
      const std::vector<uint64_t> stuck_ids = FindStuckQueries(prev, curr);
      if (!stuck_ids.empty()) {
        std::vector<MultiQueryQueue::QueryProgress> stuck;
        for (const MultiQueryQueue::QueryProgress& p : curr) {
          if (std::find(stuck_ids.begin(), stuck_ids.end(), p.query_id) !=
              stuck_ids.end()) {
            stuck.push_back(p);
          }
        }
        RecordStuckQueries(stuck);
      }
      prev = std::move(curr);
    }
    lock.Lock();
  }
}

void Session::RecordStuckQueries(
    const std::vector<MultiQueryQueue::QueryProgress>& stuck) {
  const uint64_t now_ns = MonotonicNs();
  uint64_t newly_stuck = 0;
  for (const MultiQueryQueue::QueryProgress& progress : stuck) {
    obs::SlowQueryRecord entry;
    entry.kind = "stuck";
    entry.query_id = progress.query_id;
    entry.pending_ranges = progress.pending_ranges;
    entry.leases = progress.leases;
    {
      MutexLock lock(inflight_mutex_);
      auto it = inflight_.find(progress.query_id);
      if (it != inflight_.end()) {
        entry.pattern = FormatPattern(Canonicalize(it->second.pattern).pattern);
        entry.plan_sigma = it->second.plan_sigma;
        entry.latency_seconds =
            static_cast<double>(now_ns - it->second.admit_ns) / 1e9;
      }
    }
    MutexLock lock(log_mutex_);
    // Each query is reported stuck at most once per session (it stays in
    // the progress snapshot every window until it completes or aborts).
    if (!stuck_reported_.insert(progress.query_id).second) continue;
    slow_log_.push_back(std::move(entry));
    while (slow_log_.size() > options_.slow_query_log_capacity) {
      slow_log_.pop_front();
    }
    ++newly_stuck;
  }
  if (newly_stuck > 0) {
    MutexLock lock(stats_mutex_);
    session_stats_.stuck_queries += newly_stuck;
  }
}

void Session::RegisterDeadline(
    uint64_t fire_ns, const std::shared_ptr<detail::SessionQueryState>& s) {
  {
    MutexLock lock(deadline_mutex_);
    deadline_heap_.push(DeadlineEntry{fire_ns, s});
    if (!deadline_thread_.joinable()) {
      // Lazy start, like the pool: sessions that never set a deadline
      // never pay for the thread.
      deadline_thread_ = std::thread(&Session::DeadlineTimerMain, this);
    }
  }
  deadline_cv_.NotifyAll();
}

void Session::DeadlineTimerMain() {
  // The watchdog's cv-timed loop shape, driven by the heap's earliest fire
  // time instead of a fixed window. Spurious wakeups and new earlier
  // registrations both just re-derive the wait.
  MutexLock lock(deadline_mutex_);
  while (!deadline_stop_) {
    if (deadline_heap_.empty()) {
      deadline_cv_.Wait(lock);
      continue;
    }
    const uint64_t fire_ns = deadline_heap_.top().fire_ns;
    const uint64_t now_ns = MonotonicNs();
    if (now_ns < fire_ns) {
      deadline_cv_.WaitFor(lock, std::chrono::nanoseconds(fire_ns - now_ns));
      continue;
    }
    std::shared_ptr<detail::SessionQueryState> state =
        deadline_heap_.top().state.lock();
    deadline_heap_.pop();
    if (state == nullptr) continue;  // query long gone
    // FireDeadline walks into init_mutex_ and the pool/queue locks, which
    // rank below deadline_mutex_ — it must run with the mutex dropped.
    lock.Unlock();
    FireDeadline(state);
    lock.Lock();
  }
}

void Session::FireDeadline(
    const std::shared_ptr<detail::SessionQueryState>& s) {
  // First killer wins the classification; an expired deadline on an
  // already-cancelled (or finished) query is a no-op in the pool.
  int expected = detail::kKillNone;
  s->kill_reason.compare_exchange_strong(expected, detail::kKillDeadline,
                                         std::memory_order_acq_rel);
  WorkerPool* pool = nullptr;
  {
    MutexLock lock(init_mutex_);
    pool = pool_.get();
  }
  if (pool != nullptr && s->has_handle) pool->Cancel(s->handle);
}

void Session::UnregisterQuery(uint64_t query_id) {
  MutexLock lock(cancel_mutex_);
  cancelable_.erase(query_id);
}

void Session::FillSessionReport(obs::SessionReport* out) const {
  *out = obs::SessionReport();
  out->tool = "light::Session";
  out->graph_vertices = view_.NumVertices();
  out->graph_edges = view_.NumEdges();
  const SessionStats s = stats();
  out->store_mode = s.store_mode;
  out->store_bytes_mapped = s.store_bytes_mapped;
  out->pool_threads = s.pool_threads;
  out->queries_submitted = s.queries_submitted;
  out->queries_completed = s.queries_completed;
  out->plan_cache_hits = s.plan_cache_hits;
  out->plan_cache_misses = s.plan_cache_misses;
  out->deadline_exceeded = s.deadline_exceeded;
  out->overload_rejected = s.overload_rejected;
  out->cancelled = s.cancelled;
  out->latency = s.latency;
  out->queue_wait = s.queue_wait;
  out->execute = s.execute;
  out->plan_resolve = s.plan_resolve;
  {
    MutexLock lock(log_mutex_);
    out->queries.assign(query_log_.begin(), query_log_.end());
    out->slow_queries.assign(slow_log_.begin(), slow_log_.end());
  }
  if (obs::MetricsEnabled()) {
    obs::DefaultRegistry().ForEachCounter([&](const obs::Counter& counter) {
      out->counters.push_back({counter.name(), counter.Value()});
    });
  }
}

std::vector<obs::SlowQueryRecord> Session::slow_queries() const {
  MutexLock lock(log_mutex_);
  return {slow_log_.begin(), slow_log_.end()};
}

RunResult Run(const Graph& graph, const Pattern& pattern,
              const RunOptions& options) {
  if (const Status status = options.Validate(); !status.ok()) {
    RunResult result;
    result.error = status.ToString();
    result.outcome = QueryOutcome::kError;
    return result;
  }
  // One-query session: the bitmap knobs map onto the session (through the
  // normalized plan options), the plan cache is disabled (nothing to
  // amortize across a single call), and the pool — for parallel requests —
  // is sized to the request. Serial requests run inline and never start a
  // pool, so one-shot latency is unchanged.
  SessionOptions session_options;
  session_options.threads = options.threads;
  session_options.plan_options = options.Normalized().plan_options;
  session_options.plan_cache_capacity = 0;
  Session session(graph, session_options);
  return session.RunSyncWithTool(pattern, options, "light::Run");
}

}  // namespace light
