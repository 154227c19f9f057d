#include "light.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "analysis/plan_linter.h"
#include "common/timer.h"
#include "pattern/canonical.h"

namespace light {
namespace {

const char* AlgorithmName(const PlanOptions& options) {
  if (options.lazy_materialization && options.minimum_set_cover) {
    return "light";
  }
  if (options.lazy_materialization) return "lm";
  if (options.minimum_set_cover) return "msc";
  return "se";
}

/// Exact-structure key of a pattern (edge list plus labels, no
/// canonicalization).
std::string ExactKey(const Pattern& pattern) {
  std::string key = pattern.ToString();
  for (int u = 0; u < pattern.NumVertices(); ++u) {
    key += ":" + std::to_string(pattern.Label(u));
  }
  return key;
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

/// Live SessionQueryState instances (test hook): SubmitAsync used to leak
/// every query state through an on_done <-> handle shared_ptr cycle, and the
/// regression test asserts this returns to its baseline after async
/// completions.
std::atomic<uint64_t> g_live_query_states{0};

uint64_t LiveQueryStates() {
  return g_live_query_states.load(std::memory_order_relaxed);
}

/// Shared state behind one admitted query (and its Ticket): the normalized
/// options and lifecycle stamps from admission, a pre-execution error or
/// the query's parts, and the final RunResult once delivered. A query has
/// one part per plan it runs: one for an enumeration, one per term for an
/// inclusion–exclusion count. Inline parts hold their result as soon as
/// they ran; pool parts hold a handle that Wait (or the async on_done)
/// resolves.
struct SessionQueryState {
  SessionQueryState() { g_live_query_states.fetch_add(1); }
  ~SessionQueryState() { g_live_query_states.fetch_sub(1); }

  struct Part {
    std::shared_ptr<const ExecutionPlan> plan;
    int64_t coefficient = 1;
    WorkerPool::QueryHandle handle;
    ParallelResult result;
  };

  Session* session = nullptr;
  const char* tool = "light::Session";
  Pattern pattern;
  RunOptions opts;  // normalized
  uint64_t query_id = 0;
  uint64_t admit_ns = 0;
  uint64_t plan_ns = 0;
  bool plan_cache_hit = false;
  /// Validation, lint, or visitor-on-Submit failure: nothing runs.
  std::string error;
  std::vector<Part> parts;
  /// Divisor of the signed part sum (|Aut(P)| for unique IEP counts).
  uint64_t automorphisms = 1;
  bool on_pool = false;
  const BitmapIndex* bitmap = nullptr;

  /// Why the query was aborted, when it was (deadline timer vs Cancel);
  /// written lock-free by the killer threads before they deliver the
  /// abort, read at finalize to classify the outcome.
  std::atomic<int> kill_reason{kKillNone};

  /// Async completion sink (SubmitAsync); fires exactly once, inside
  /// Finalize.
  std::function<void(const RunResult&)> callback;
  /// Async pool parts whose on_done has not run yet; the last one to finish
  /// finalizes the query (acq_rel: it sees every other part's result).
  std::atomic<size_t> pending_parts{0};

  Mutex mutex{lockrank::kSessionQueryState, "SessionQueryState::mutex"};
  bool finalized LIGHT_GUARDED_BY(mutex) = false;
  RunResult result LIGHT_GUARDED_BY(mutex);

  /// Combines the parts into the final RunResult exactly once — callable
  /// from Wait (caller thread) and from the pool's on_done (worker thread);
  /// later calls return the cached result. The winning call fills the
  /// report sink, records the query with the session, and fires the async
  /// callback.
  RunResult Finalize() LIGHT_EXCLUDES(mutex) {
    MutexLock lock(mutex);
    if (finalized) return result;
    // Pre-execution failures carry no parts (Launch clears them).
    const ExecutionPlan* plan =
        parts.empty() ? nullptr : parts.front().plan.get();
    // Every result carries its query id, so a caller can match even a
    // pre-execution error to its submission.
    result.query_stats.query_id = query_id;
    if (!error.empty()) {
      result.error = error;
      result.outcome = QueryOutcome::kError;
    } else {
      __int128 total = 0;
      EngineStats stats;
      std::vector<obs::WorkerStats> workers;
      bool aborted = false;
      bool rejected = false;
      obs::QueryStats& q = result.query_stats;
      for (const Part& part : parts) {
        const ParallelResult& r = part.result;
        total += static_cast<__int128>(part.coefficient) *
                 static_cast<__int128>(r.num_matches);
        stats.Add(r.stats);
        result.elapsed_seconds += r.elapsed_seconds;
        result.timed_out = result.timed_out || r.timed_out;
        aborted = aborted || r.aborted;
        rejected = rejected || r.rejected;
        if (workers.empty()) {
          workers = r.workers;
        } else {
          for (size_t w = 0; w < workers.size() && w < r.workers.size(); ++w) {
            workers[w].Add(r.workers[w]);
          }
        }
        const obs::QueryStats& lc = r.lifecycle;
        q.queue_wait_ns += lc.queue_wait_ns;
        q.execute_ns += lc.execute_ns;
        q.total_ns = std::max(q.total_ns, lc.total_ns);
        q.ranges_executed += lc.ranges_executed;
        q.steals += lc.steals;
        q.busy_ns += lc.busy_ns;
        q.park_ns += lc.park_ns;
      }
      q.plan_ns = plan_ns;
      q.plan_cache_hit = plan_cache_hit;
      // The signed sum is exact for complete runs; a timeout leaves a
      // partial (possibly negative) sum — clamp, like partial counts.
      result.num_matches =
          static_cast<uint64_t>(std::max<__int128>(total, 0)) / automorphisms;
      if (rejected) {
        result.outcome = QueryOutcome::kOverloadRejected;
        result.error = std::string(kOverloadRejectedPrefix) +
                       " session admission limit reached";
      } else if (on_pool && (aborted || result.timed_out)) {
        // An abort with no recorded reason is the enumerator tripping the
        // wall-clock budget itself — the same deadline, enforced from
        // inside a range instead of by the timer thread. (Inline runs keep
        // the classic OOT contract: timed_out set, outcome kOk.)
        if (kill_reason.load(std::memory_order_acquire) == kKillCancelled) {
          result.outcome = QueryOutcome::kCancelled;
          result.error = std::string(kCancelledPrefix) +
                         " query aborted before completion";
        } else {
          result.outcome = QueryOutcome::kDeadlineExceeded;
          result.timed_out = true;
          result.error = std::string(kDeadlineExceededPrefix) +
                         " wall-clock budget of " +
                         std::to_string(opts.time_limit_seconds) +
                         "s elapsed before completion (partial count retained)";
        }
      }
      if (opts.report != nullptr && plan != nullptr) {
        obs::RunReport* report = opts.report;
        *report = obs::RunReport();
        report->tool = tool;
        report->algorithm = AlgorithmName(plan->options);
        report->graph_vertices = session->view().NumVertices();
        report->graph_edges = session->view().NumEdges();
        report->bitmap_rows = bitmap->num_rows();
        report->bitmap_memory_bytes =
            bitmap->empty() ? 0 : bitmap->MemoryBytes();
        obs::FillFromEngine(*plan, stats, report);
        obs::SnapshotCounters(report);
        report->elapsed_seconds = result.elapsed_seconds;
        // The combined signed count, not the raw per-part engine sum.
        report->num_matches = result.num_matches;
        report->workers = std::move(workers);
        // No workers: the caller thread ran the query inline.
        report->summary = report->workers.empty()
                              ? obs::WorkerSummary{1, 1, 1.0, 0, 0}
                              : obs::SummarizeWorkers(report->workers);
      }
    }
    finalized = true;
    session->RecordQueryDone(result, pattern, plan);
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
    }
    // Block outside the state lock — the pool's on_done path (async
    // submits) takes it to finalize and must not deadlock against us.
    if (on_pool) {
      for (Part& part : parts) part.result = part.handle.Wait();
    }
    return Finalize();
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
}

Session::~Session() {
  {
    MutexLock lock(timer_mutex_);
    timer_stop_ = true;
  }
  timer_cv_.NotifyAll();
  if (timer_thread_.joinable()) timer_thread_.join();
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

std::shared_ptr<detail::SessionQueryState> Session::Admit(
    const Pattern& pattern, const RunOptions& options, const char* tool,
    std::function<void(const RunResult&)> callback) {
  auto s = std::make_shared<detail::SessionQueryState>();
  s->session = this;
  s->tool = tool;
  s->pattern = pattern;
  s->callback = std::move(callback);
  s->query_id = obs::NextQueryId();
  s->admit_ns = MonotonicNs();
  {
    MutexLock lock(stats_mutex_);
    ++session_stats_.queries_submitted;
  }
  if (obs::MetricsEnabled()) obs_queries_started_->Inc();
  if (const Status status = options.Validate(); !status.ok()) {
    s->error = status.ToString();
  } else if (!pattern.IsConnected()) {
    // The planner requires a connected pattern; one bad query must come
    // back as an error, not abort a process that serves other queries.
    s->error = Status::InvalidArgument("pattern must be connected (got " +
                                       FormatPattern(pattern) + ")")
                   .ToString();
  } else {
    s->opts = options.Normalized();
  }
  return s;
}

bool Session::Lint(const Pattern& pattern, const ExecutionPlan& plan,
                   const GraphStats* stats, std::string* error) const {
  obs::TraceSpan span("plan_lint");
  analysis::LintOptions lint_options;
  if (stats != nullptr) {
    lint_options.cardinality = analysis::AnalyticCardinalityFn(*stats);
  }
  analysis::LintReport report =
      analysis::LintPlan(pattern, plan, lint_options);
  analysis::LintBitmapConfig(options_.plan_options.bitmap_min_degree,
                             options_.plan_options.bitmap_density,
                             options_.plan_options.bitmap_max_bytes, &report);
  if (report.ok()) return true;
  *error = "plan lint failed:\n" + report.ToString();
  return false;
}

std::shared_ptr<const ExecutionPlan> Session::ResolvePlan(
    const Pattern& pattern, const IepTerm* term, const RunOptions& opts,
    std::string* error, bool* cache_hit) {
  *cache_hit = false;
  if (opts.plan != nullptr) {
    // Caller-supplied plan: never cached, structural lint only (no stats).
    // The returned pointer aliases the caller's plan without owning it.
    if (opts.lint_plan && !Lint(pattern, *opts.plan, nullptr, error)) {
      return nullptr;
    }
    return std::shared_ptr<const ExecutionPlan>(
        std::shared_ptr<const ExecutionPlan>(), opts.plan);
  }
  // The plan is linted against the numbering it was built for: the
  // linter checks the plan's wiring vertex-by-vertex.
  const Pattern& plan_pattern = term != nullptr ? term->pattern : pattern;
  std::string key;
  if (options_.plan_cache_capacity > 0 && opts.visitor == nullptr) {
    // Pattern plans share one entry across isomorphic submissions: the
    // canonical shape plus the plan-shaping options (unique_subgraphs is
    // folded into plan_options.symmetry_breaking by Normalized). Term plans
    // key on the exact structure instead — two isomorphic submissions with
    // different numberings decompose differently, and their term plans
    // must not mix.
    key = term == nullptr ? Canonicalize(pattern).Key()
                          : "iep-term:" + ExactKey(pattern) + "|" +
                                ExactKey(term->pattern) + "|t" +
                                std::to_string(term->counted_tail.size());
    key += opts.plan_options.CacheKey();
    std::shared_ptr<const ExecutionPlan> cached;
    Pattern cached_pattern;  // the numbering the cached plan was built for
    bool linted = false;
    {
      MutexLock lock(cache_mutex_);
      auto it = plan_cache_.find(key);
      if (it != plan_cache_.end()) {
        it->second.last_used = ++cache_tick_;
        cached = it->second.plan;
        cached_pattern = it->second.pattern;
        linted = it->second.linted;
      }
    }
    *cache_hit = cached != nullptr;
    {
      MutexLock lock(stats_mutex_);
      ++(*cache_hit ? session_stats_.plan_cache_hits
                    : session_stats_.plan_cache_misses);
    }
    if (obs::MetricsEnabled()) {
      (*cache_hit ? obs_cache_hits_ : obs_cache_misses_)->Inc();
    }
    if (cached != nullptr) {
      if (opts.lint_plan && !linted) {
        // Inserted by a lint-off query; this query wants the gate. Lint now
        // and remember so the check runs at most once per entry.
        const GraphStats stats = ComputeGraphStats(view_);
        if (!Lint(cached_pattern, *cached, &stats, error)) {
          return nullptr;
        }
        MutexLock lock(cache_mutex_);
        auto it = plan_cache_.find(key);
        if (it != plan_cache_.end()) it->second.linted = true;
      }
      return cached;
    }
  }

  // Build + lint outside the cache lock (both are the expensive part, and
  // concurrent misses of the same key must not serialize on it). The plan
  // is built for the SUBMITTED numbering — exactly the plan one-shot Run
  // would produce — not the canonical form: plan quality is numbering-
  // sensitive (symmetry-breaking constraint placement), while the count is
  // isomorphism-invariant, so the first submitter's plan safely serves
  // every later renumbering that hits this key. The degree stats are one
  // O(|V|) pass over the offsets; the sampling planner reads nothing else.
  const GraphStats stats = ComputeGraphStats(view_);
  auto built = std::make_shared<const ExecutionPlan>([&] {
    obs::TraceSpan span("build_plan");
    return term != nullptr
               ? BuildIepTermPlan(*term, *graph_ptr_, stats, opts.plan_options)
               : BuildRunPlan(*graph_ptr_, stats, pattern, opts);
  }());
  if (opts.lint_plan && !Lint(plan_pattern, *built, &stats, error)) {
    return nullptr;
  }
  if (key.empty()) return built;
  MutexLock lock(cache_mutex_);
  auto [it, inserted] = plan_cache_.try_emplace(std::move(key));
  it->second.last_used = ++cache_tick_;
  // Lost an insert race: exactly one entry per key — keep the winner's
  // plan (this query still runs its own identical build).
  if (!inserted) return built;
  it->second.plan = built;
  it->second.pattern = plan_pattern;
  it->second.linted = opts.lint_plan;
  while (plan_cache_.size() > options_.plan_cache_capacity) {
    auto victim = plan_cache_.begin();
    for (auto walk = plan_cache_.begin(); walk != plan_cache_.end(); ++walk) {
      if (walk->second.last_used < victim->second.last_used) victim = walk;
    }
    plan_cache_.erase(victim);  // in-flight queries hold shared_ptrs
  }
  return built;
}

void Session::Launch(const std::shared_ptr<detail::SessionQueryState>& s,
                     bool on_pool) {
  const RunOptions& opts = s->opts;
  IepDecomposition dec;
  // The enumeration plan, when kAuto resolved it to choose a strategy.
  std::shared_ptr<const ExecutionPlan> enumeration_plan;
  bool enumeration_hit = false;
  if (s->error.empty() &&
      opts.plan_options.count_strategy != CountStrategy::kEnumerate &&
      opts.visitor == nullptr && !opts.plan_options.induced &&
      opts.plan == nullptr) {
    // Counting-only query with IEP requested (or auto): decompose, and take
    // the IEP path when the decomposition exists and — under kAuto — the
    // tail is big enough to plausibly pay for the extra term plans, unless
    // the enumeration plan counts its tail twins by one binomial (a twin
    // leaf), which no set of term plans beats.
    dec = BuildIepDecomposition(s->pattern);
    if (opts.plan_options.count_strategy == CountStrategy::kAuto) {
      if (dec.valid() && dec.tail.size() >= 2) {
        enumeration_plan = ResolvePlan(s->pattern, nullptr, opts, &s->error,
                                       &enumeration_hit);
      }
      const bool twin_leaf =
          enumeration_plan != nullptr && enumeration_plan->HasTwinLeaf() &&
          (opts.data_labels == nullptr ||
           !enumeration_plan->TwinClosureLabeled());
      if (enumeration_plan == nullptr || twin_leaf) dec = IepDecomposition();
    }
  }
  // One part per IEP term, else one for the pattern itself. Every plan is
  // resolved before any part runs, so a lint failure aborts before any
  // counting work.
  const bool iep = dec.valid() && !dec.terms.empty();
  if (s->error.empty()) {
    s->parts.resize(iep ? dec.terms.size() : 1);
    s->plan_cache_hit = true;
    for (size_t i = 0; i < s->parts.size() && s->error.empty(); ++i) {
      const IepTerm* term = iep ? &dec.terms[i] : nullptr;
      bool hit = false;
      if (term == nullptr && enumeration_plan != nullptr) {
        s->parts[i].plan = enumeration_plan;
        hit = enumeration_hit;
      } else {
        s->parts[i].plan = ResolvePlan(s->pattern, term, opts, &s->error, &hit);
      }
      s->plan_cache_hit = s->plan_cache_hit && hit;
      if (term != nullptr) s->parts[i].coefficient = term->coefficient;
    }
    if (iep && opts.unique_subgraphs) s->automorphisms = dec.automorphism_count;
  }
  if (!s->error.empty()) {
    // Pre-execution failure: delivered now to an async callback, else by
    // Wait.
    s->parts.clear();
    if (s->callback) s->Finalize();
    return;
  }
  s->plan_ns = MonotonicNs() - s->admit_ns;
  s->on_pool = on_pool;
  s->bitmap = &EnsureBitmap();
  if (on_pool && options_.stuck_query_window_seconds > 0) {
    // Register with the watchdog before the pool can start (so a query
    // stuck from its very first range still has context on record).
    InflightQuery info;
    info.pattern = s->pattern;
    info.plan_sigma = obs::PlanSigmaString(*s->parts.front().plan);
    info.admit_ns = s->admit_ns;
    MutexLock lock(inflight_mutex_);
    inflight_.emplace(s->query_id, std::move(info));
  }
  s->pending_parts.store(s->parts.size(), std::memory_order_relaxed);
  for (size_t i = 0; i < s->parts.size(); ++i) {
    Execute(s, i);
    // Inline parts run in turn; once the shared budget is spent the rest
    // are skipped (their zero counts join the partial sum).
    if (!on_pool && s->parts[i].result.timed_out) break;
  }
  if (!on_pool) return;
  {
    // Cancel index entry after the handles exist (Kill dereferences them;
    // cancel_mutex_ publishes the writes). Callers can only know this id
    // once Submit returned, so nothing is missed. Retired by
    // RecordQueryDone — which can already have run for queries the pool
    // finalized inline (admission reject, empty graph, async callback):
    // registering those here would leave a dead entry in the map forever,
    // so the finalized check under the state lock closes that race.
    MutexLock state_lock(s->mutex);
    if (!s->finalized) {
      MutexLock lock(cancel_mutex_);
      cancelable_.emplace(s->query_id, s);
    }
  }
  if (opts.time_limit_seconds > 0 || options_.stuck_query_window_seconds > 0) {
    ArmTimer(s);
  }
}

void Session::Execute(const std::shared_ptr<detail::SessionQueryState>& s,
                      size_t i) {
  const RunOptions& opts = s->opts;
  detail::SessionQueryState::Part& part = s->parts[i];
  if (s->on_pool) {
    WorkerPool::QuerySpec spec;
    spec.graph = view_;
    spec.plan = part.plan.get();
    spec.plan_holder = part.plan;
    spec.data_labels = opts.data_labels;
    spec.bitmap_index = s->bitmap;
    spec.options.num_threads = opts.threads;  // 0 = the whole pool
    // 0 = unlimited (ParallelOptions::Normalized); every part spends the
    // one budget anchored at the query's admit.
    spec.options.time_limit_seconds = opts.time_limit_seconds;
    spec.admit_ns = s->admit_ns;
    spec.query_id = s->query_id;
    spec.priority = opts.priority;
    if (s->callback) {
      // Push-style completion: each part's finalizer (worker thread, or
      // Submit itself for immediate completions) stores its result, and
      // the last part to finish drives Finalize. The captured shared_ptr
      // keeps the state alive until then.
      spec.on_done = [self = s, i](const ParallelResult& presult) {
        self->parts[i].result = presult;
        if (self->pending_parts.fetch_sub(1, std::memory_order_acq_rel) ==
            1) {
          self->Finalize();
        }
      };
    }
    part.handle = EnsurePool().Submit(spec);
    return;
  }
  // Inline on the caller thread. The budget is anchored at admit: plan
  // resolution and earlier parts already consumed part of it, so the limit
  // a query observes is true wall clock from entry, matching the pool.
  Enumerator enumerator(view_, *part.plan, opts.data_labels);
  enumerator.SetBitmapIndex(s->bitmap);
  const uint64_t start_ns = MonotonicNs();
  enumerator.SetTimeLimit(
      opts.time_limit_seconds > 0
          ? opts.time_limit_seconds -
                static_cast<double>(start_ns - s->admit_ns) * 1e-9
          : std::numeric_limits<double>::infinity());
  ParallelResult& r = part.result;
  r.num_matches = opts.visitor != nullptr ? enumerator.Enumerate(opts.visitor)
                                          : enumerator.Count();
  r.stats = enumerator.stats();
  r.elapsed_seconds = r.stats.elapsed_seconds;
  r.timed_out = r.stats.timed_out;
  const uint64_t done_ns = MonotonicNs();
  // No scheduling wait: the caller thread is the one worker.
  r.lifecycle.execute_ns = done_ns - start_ns;
  r.lifecycle.busy_ns = r.lifecycle.execute_ns;
  r.lifecycle.total_ns = done_ns - s->admit_ns;
  r.lifecycle.ranges_executed = 1;
}

Session::Ticket Session::SubmitInternal(
    const Pattern& pattern, const RunOptions& options, const char* tool,
    std::function<void(const RunResult&)> callback) {
  std::shared_ptr<detail::SessionQueryState> s =
      Admit(pattern, options, tool, std::move(callback));
  if (s->error.empty() && s->opts.visitor != nullptr) {
    s->error =
        "Session::Submit does not support visitors (streaming is serial "
        "and vertex-numbering-sensitive); use Session::RunSync";
  }
  Launch(s, /*on_pool=*/true);
  return Ticket(std::move(s));
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
  return state != nullptr && Kill(*state, detail::kKillCancelled);
}

bool Session::Kill(detail::SessionQueryState& s, int reason) {
  // First killer wins the classification; killing an already-cancelled
  // (or finished) query is a no-op in the pool.
  int expected = detail::kKillNone;
  s.kill_reason.compare_exchange_strong(expected, reason,
                                        std::memory_order_acq_rel);
  WorkerPool& pool = EnsurePool();
  bool delivered = false;
  for (const detail::SessionQueryState::Part& part : s.parts) {
    delivered = pool.Cancel(part.handle) || delivered;
  }
  return delivered;
}

RunResult Session::RunSyncWithTool(const Pattern& pattern,
                                   const RunOptions& options,
                                   const char* tool) {
  std::shared_ptr<detail::SessionQueryState> s =
      Admit(pattern, options, tool, nullptr);
  // Serial queries run inline on the caller thread — the one-shot Run code
  // path, with no pool involvement (and exact visitor semantics).
  Launch(s, /*on_pool=*/s->opts.threads != 1);
  return s->Wait();
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
  const double latency_seconds = static_cast<double>(qstats.total_ns) / 1e9;
  // A null plan is a pre-execution failure: delivered, but nothing ran, so
  // it stays out of the lifecycle histograms and logs.
  const bool slow = plan != nullptr &&
                    options_.slow_query_threshold_seconds > 0 &&
                    latency_seconds >= options_.slow_query_threshold_seconds;
  if (plan != nullptr) {
    {
      MutexLock lock(cancel_mutex_);
      cancelable_.erase(qstats.query_id);
    }
    if (options_.stuck_query_window_seconds > 0) {
      MutexLock lock(inflight_mutex_);
      inflight_.erase(qstats.query_id);
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
    MutexLock lock(log_mutex_);
    query_log_.push_back(std::move(record));
    while (query_log_.size() > kQueryLogCapacity) {
      query_log_.pop_front();
    }
    if (slow) {
      obs::SlowQueryRecord entry;
      entry.kind = "slow";
      entry.query_id = qstats.query_id;
      entry.pattern = FormatPattern(Canonicalize(pattern).pattern);
      entry.plan_sigma = obs::PlanSigmaString(*plan);
      entry.latency_seconds = latency_seconds;
      entry.ranges_executed = qstats.ranges_executed;
      slow_log_.push_back(std::move(entry));
      while (slow_log_.size() > kSlowQueryLogCapacity) {
        slow_log_.pop_front();
      }
    }
  }
  obs::Counter* outcome_counter = nullptr;
  {
    MutexLock lock(stats_mutex_);
    ++session_stats_.queries_completed;
    if (slow) ++session_stats_.slow_queries;
    switch (result.outcome) {
      case QueryOutcome::kDeadlineExceeded:
        ++session_stats_.deadline_exceeded;
        outcome_counter = obs_deadline_exceeded_;
        break;
      case QueryOutcome::kOverloadRejected:
        ++session_stats_.overload_rejected;
        outcome_counter = obs_overload_rejected_;
        break;
      case QueryOutcome::kCancelled:
        ++session_stats_.cancelled;
        outcome_counter = obs_cancelled_;
        break;
      case QueryOutcome::kOk:
      case QueryOutcome::kError:
        break;
    }
  }
  if (obs::MetricsEnabled()) {
    obs_queries_completed_->Inc();
    if (outcome_counter != nullptr) outcome_counter->Inc();
  }
}

void Session::ArmTimer(const std::shared_ptr<detail::SessionQueryState>& s) {
  {
    MutexLock lock(timer_mutex_);
    if (s->opts.time_limit_seconds > 0) {
      // Wall-clock deadline, anchored at admit: plan build already
      // consumed budget. An already-expired deadline fires on the timer's
      // next pass.
      timer_heap_.push(DeadlineEntry{
          s->admit_ns + static_cast<uint64_t>(s->opts.time_limit_seconds * 1e9),
          s});
    }
    if (!timer_thread_.joinable()) {
      // Lazy start, like the pool: sessions that never run a pool query
      // with a deadline or a watchdog window never pay for the thread.
      timer_thread_ = std::thread(&Session::TimerMain, this);
    }
  }
  timer_cv_.NotifyAll();
}

void Session::TimerMain() {
  // One cv-timed loop for both duties: it wakes at the earlier of the heap's
  // first deadline and the next stuck-query scan. Spurious wakeups and new
  // earlier registrations both just re-derive the wait.
  constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();
  const uint64_t window_ns =
      static_cast<uint64_t>(options_.stuck_query_window_seconds * 1e9);
  uint64_t next_scan_ns = window_ns > 0 ? MonotonicNs() + window_ns : kNever;
  std::vector<MultiQueryQueue::QueryProgress> prev;
  MutexLock lock(timer_mutex_);
  while (!timer_stop_) {
    const uint64_t now_ns = MonotonicNs();
    const uint64_t wake_ns =
        timer_heap_.empty() ? next_scan_ns
                            : std::min(next_scan_ns, timer_heap_.top().fire_ns);
    if (now_ns < wake_ns) {
      if (wake_ns == kNever) {
        timer_cv_.Wait(lock);
      } else {
        timer_cv_.WaitFor(lock, std::chrono::nanoseconds(wake_ns - now_ns));
      }
      continue;
    }
    std::shared_ptr<detail::SessionQueryState> expired;
    if (!timer_heap_.empty() && timer_heap_.top().fire_ns <= now_ns) {
      expired = timer_heap_.top().state.lock();  // null: query long gone
      timer_heap_.pop();
    }
    const bool scan = now_ns >= next_scan_ns;
    if (scan) next_scan_ns = now_ns + window_ns;
    // Both duties walk into init_mutex_ and the pool/queue/log locks, which
    // rank below timer_mutex_ — they must run with the mutex dropped.
    lock.Unlock();
    if (expired != nullptr) Kill(*expired, detail::kKillDeadline);
    if (scan) ScanStuckQueries(&prev);
    lock.Lock();
  }
}

void Session::ScanStuckQueries(
    std::vector<MultiQueryQueue::QueryProgress>* prev) {
  std::vector<MultiQueryQueue::QueryProgress> curr =
      EnsurePool().SnapshotQueryProgress();
  const std::vector<uint64_t> stuck_ids = FindStuckQueries(*prev, curr);
  const uint64_t now_ns = MonotonicNs();
  uint64_t newly_stuck = 0;
  for (const MultiQueryQueue::QueryProgress& progress : curr) {
    if (std::find(stuck_ids.begin(), stuck_ids.end(), progress.query_id) ==
        stuck_ids.end()) {
      continue;
    }
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
    while (slow_log_.size() > kSlowQueryLogCapacity) {
      slow_log_.pop_front();
    }
    ++newly_stuck;
  }
  if (newly_stuck > 0) {
    MutexLock lock(stats_mutex_);
    session_stats_.stuck_queries += newly_stuck;
  }
  *prev = std::move(curr);
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
  // One-query session: the bitmap knobs map onto the session (through the
  // normalized plan options), the plan cache is disabled (nothing to
  // amortize across a single call), and the pool — for parallel requests —
  // is sized to the request. Serial requests run inline and never start a
  // pool, so one-shot latency is unchanged. The session's admit step
  // validates the options.
  SessionOptions session_options;
  session_options.threads = options.threads;
  session_options.plan_options = options.Normalized().plan_options;
  session_options.plan_cache_capacity = 0;
  Session session(graph, session_options);
  return session.RunSyncWithTool(pattern, options, "light::Run");
}

}  // namespace light
