#include "parallel/worker_pool.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/lock_ranks.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "engine/enumerator.h"
#include "engine/scratch_arena.h"
#include "obs/metrics.h"
#include "obs/query_stats.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace light {
namespace {

/// The per-worker candidate-buffer footprint the Enumerator constructor
/// will report for this (graph, plan) pair — computed analytically so the
/// merged candidate_memory_bytes stays exactly `threads_configured x
/// serial` (Table V's metric) even though pool workers build enumerators
/// lazily (a worker that never touches a query allocates nothing).
size_t PerWorkerCandidateBytes(const GraphView& graph,
                               const ExecutionPlan& plan) {
  size_t bytes = 0;
  for (const Operation& op : plan.sigma) {
    if (op.type != OpType::kCompute) continue;
    const Operands& ops = plan.operands[static_cast<size_t>(op.vertex)];
    if (ops.k1.empty() && ops.k2.empty()) continue;
    bytes += static_cast<size_t>(graph.MaxDegree()) * sizeof(VertexID);
  }
  return bytes;
}

}  // namespace

namespace internal {

/// Shared state of one submitted query. Owned jointly by the caller's
/// QueryHandle, the workers currently caching it, and a self-keepalive that
/// the finalizer drops — so a caller may discard its handle without waiting
/// and the state still lives until the query finishes.
struct PoolQueryState : std::enable_shared_from_this<PoolQueryState> {
  WorkerPool::QuerySpec spec;
  ParallelOptions opts;  // normalized
  Timer timer;           // wall clock since Submit

  // Lifecycle timestamps (MonotonicNs clock). admit_ns is when the caller
  // entered the serving layer, activate_ns when the queue published the
  // query; first_range_ns is CAS-stamped once by whichever worker starts
  // the first range (0 = never reached a worker).
  uint64_t query_id = 0;
  uint64_t admit_ns = 0;
  uint64_t activate_ns = 0;
  std::atomic<uint64_t> first_range_ns{0};

  // Guards the q pointer against the Cancel-vs-finalize race: the
  // finalizer detaches q under this mutex *before* Release frees it, so a
  // concurrent Cancel either sees the live query or nullptr — never a
  // dangling pointer.
  Mutex abort_mutex{lockrank::kPoolAbort, "PoolQueryState::abort_mutex"};
  MultiQueryQueue::Query* q LIGHT_GUARDED_BY(abort_mutex) = nullptr;
  // Written once in Submit before the handle is published; read-only after.
  bool rejected = false;

  // Per-pool-slot attribution; slot s is only written by worker s.
  std::vector<obs::WorkerStats> slots;

  Mutex merge_mutex{lockrank::kPoolMerge, "PoolQueryState::merge_mutex"};
  EngineStats merged LIGHT_GUARDED_BY(merge_mutex);
  size_t per_worker_cand_bytes = 0;

  Mutex done_mutex{lockrank::kPoolDone, "PoolQueryState::done_mutex"};
  CondVar done_cv;
  bool done LIGHT_GUARDED_BY(done_mutex) = false;
  ParallelResult result LIGHT_GUARDED_BY(done_mutex);

  std::shared_ptr<PoolQueryState> keepalive;
};

}  // namespace internal

using internal::PoolQueryState;

ParallelResult WorkerPool::QueryHandle::Wait() {
  MutexLock lock(state_->done_mutex);
  while (!state_->done) state_->done_cv.Wait(lock);
  return state_->result;
}

bool WorkerPool::QueryHandle::done() const {
  MutexLock lock(state_->done_mutex);
  return state_->done;
}

WorkerPool::WorkerPool(int num_threads) {
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  obs_queries_submitted_ = registry.GetCounter("pool.queries_submitted");
  obs_queries_completed_ = registry.GetCounter("pool.queries_completed");
  obs_queries_rejected_ = registry.GetCounter("pool.queries_rejected");
  obs_queries_aborted_ = registry.GetCounter("pool.queries_aborted");
  obs_ranges_executed_ = registry.GetCounter("pool.ranges_executed");
  obs_queue_wait_hist_ = registry.GetHistogram("pool.queue_wait_ns");
  obs_execute_hist_ = registry.GetHistogram("pool.execute_ns");

  ParallelOptions opts;
  opts.num_threads = num_threads;
  const int n = opts.Normalized().num_threads;
  threads_.reserve(static_cast<size_t>(n));
  for (int t = 0; t < n; ++t) {
    threads_.emplace_back([this, t] { WorkerMain(t); });
  }
}

WorkerPool::~WorkerPool() {
  queue_.Shutdown();
  for (std::thread& thread : threads_) thread.join();
}

WorkerPool::QueryHandle WorkerPool::Submit(const QuerySpec& spec) {
  auto qs = std::make_shared<PoolQueryState>();
  qs->spec = spec;
  qs->opts = spec.options.Normalized();
  qs->query_id = spec.query_id != 0 ? spec.query_id : obs::NextQueryId();
  qs->admit_ns = spec.admit_ns != 0 ? spec.admit_ns : MonotonicNs();
  qs->per_worker_cand_bytes = PerWorkerCandidateBytes(spec.graph, *spec.plan);
  qs->slots.resize(threads_.size());
  for (size_t s = 0; s < qs->slots.size(); ++s) {
    qs->slots[s].worker_id = static_cast<int>(s);
  }
  qs->keepalive = qs;

  // A query asking for fewer threads than the pool has gets a lease cap so
  // at most that many workers execute it concurrently.
  const int effective_threads = std::min(
      static_cast<int>(threads_.size()),
      spec.options.num_threads > 0 ? spec.options.num_threads
                                   : static_cast<int>(threads_.size()));
  qs->q = queue_.Open(qs.get(), effective_threads, qs->query_id,
                      spec.priority);
  if (qs->q == nullptr) {
    // Admission limit reached: reject immediately with an already-done
    // handle. No worker ever sees the query; FinalizeQuery delivers the
    // structured rejection (zero counts, rejected=true).
    qs->rejected = true;
    if (obs::MetricsEnabled()) obs_queries_rejected_->Inc();
    qs->timer.Restart();
    qs->activate_ns = MonotonicNs();
    FinalizeQuery(qs.get());
    return QueryHandle(std::move(qs));
  }

  // Bootstrap chunks; donation keeps the tail balanced afterwards. The
  // chunk product stays in 64 bits: num_threads * chunks_per_worker can
  // overflow int for adversarial configs.
  const VertexID n = spec.graph.NumVertices();
  const int64_t chunks =
      std::max<int64_t>(1, static_cast<int64_t>(effective_threads) *
                               qs->opts.initial_chunks_per_worker);
  const VertexID step = static_cast<VertexID>(
      std::max<int64_t>(1, (static_cast<int64_t>(n) + chunks - 1) / chunks));
  for (VertexID begin = 0; begin < n; begin += step) {
    queue_.Push(qs->q, {begin, std::min<VertexID>(n, begin + step)});
  }

  if (obs::MetricsEnabled()) obs_queries_submitted_->Inc();
  qs->timer.Restart();
  qs->activate_ns = MonotonicNs();
  if (queue_.Activate(qs->q)) {
    // Zero root candidates: no worker will ever see this query.
    FinalizeQuery(qs.get());
  }
  return QueryHandle(std::move(qs));
}

void WorkerPool::WorkerMain(int slot) {
  obs::TraceSpan worker_span("worker", "id", slot);
  // Arena + cached enumerator live for the thread's lifetime: buffers
  // released by one query's enumerator are reacquired by the next, and a
  // worker draining several ranges of the same query keeps one enumerator.
  ScratchArena arena;
  std::shared_ptr<PoolQueryState> cached_state;
  std::unique_ptr<Enumerator> cached_enum;
  uint32_t donation_ticks = 0;

  MultiQueryQueue::Lease lease;
  while (true) {
    const uint64_t pop_start_ns = MonotonicNs();
    const bool got_work = queue_.Pop(&lease);
    const uint64_t pop_ns = MonotonicNs() - pop_start_ns;
    if (!got_work) break;

    auto* qs = static_cast<PoolQueryState*>(lease.context);
    if (cached_state.get() != qs) {
      // Query switch: destroy the old enumerator on this thread (its
      // buffers return to the arena) and build one for the new query. The
      // cached state's shared_ptr keeps a completed query's memory — not
      // its caller-owned graph/plan, which we never touch again — alive
      // until the switch.
      cached_enum.reset();
      cached_state = qs->shared_from_this();
      cached_enum = std::make_unique<Enumerator>(
          qs->spec.graph, *qs->spec.plan, qs->spec.data_labels, &arena);
      cached_enum->SetBitmapIndex(qs->spec.bitmap_index);
    }
    // Time blocked in Pop while this query was live is its idle time (the
    // tail-imbalance signal the per-worker stats exist to expose).
    qs->slots[static_cast<size_t>(slot)].idle_ns += pop_ns;

    ProcessLease(qs, cached_enum.get(), slot, &lease, &donation_ticks);

    if (queue_.Done(lease)) FinalizeQuery(qs);
  }
  // Thread exit: release the last enumerator's buffers on this thread.
  cached_enum.reset();
}

void WorkerPool::ProcessLease(PoolQueryState* qs, Enumerator* enumerator,
                              int slot, MultiQueryQueue::Lease* lease,
                              uint32_t* donation_ticks) {
  obs::WorkerStats& ws = qs->slots[static_cast<size_t>(slot)];
  const uint64_t busy_start_ns = MonotonicNs();
  // First range of the query: the queue-wait window ends here.
  uint64_t expected_first = 0;
  qs->first_range_ns.compare_exchange_strong(expected_first, busy_start_ns,
                                             std::memory_order_relaxed);
  ++ws.ranges_popped;
  RootRange& range = lease->range;
  if (range.donated) {
    ++ws.steals_received;
    obs::TraceInstant("steal", "begin", range.begin, qs->query_id);
  }

  // The query's wall-clock budget, re-anchored per range: the enumerator's
  // own clock restarts here, so hand it whatever budget remains since the
  // query was admitted (<= 0 trips the deadline on the first check,
  // unwinding as OOT). Anchoring at admit_ns — not range start — means
  // plan build and queue wait consume the budget too, so a query cannot
  // exceed its limit by sitting in the queue.
  const double limit = qs->opts.time_limit_seconds;
  if (std::isfinite(limit)) {
    const double since_admit =
        static_cast<double>(busy_start_ns - qs->admit_ns) * 1e-9;
    const double remaining = limit - since_admit;
    if (remaining <= 0) {
      // Budget already gone: don't start the range at all (the in-range
      // deadline check fires only every ~1k extensions, which a short
      // range never reaches). Abort cannot complete here — we hold a
      // lease — so Done() in the worker loop still settles the query
      // exactly once.
      {
        MutexLock lock(qs->merge_mutex);
        qs->merged.timed_out = true;
      }
      queue_.Abort(lease->query);
      return;
    }
    enumerator->SetTimeLimit(remaining);
  } else {
    enumerator->SetTimeLimit(std::numeric_limits<double>::infinity());
  }
  enumerator->RestartClock();

  obs::TraceSpan range_span("range", "begin", range.begin, qs->query_id);
  VertexID v = range.begin;
  while (v < range.end) {
    // Sender-initiated stealing: if peers are starving and the query may
    // take another lease, donate the second half of the remaining range.
    if (range.end - v > qs->opts.min_split_size &&
        (++*donation_ticks % qs->opts.donation_check_interval) == 0 &&
        queue_.IdleWorkersWaiting() &&
        queue_.HasFreeLeaseSlot(lease->query)) {
      const VertexID mid = v + (range.end - v) / 2;
      queue_.Push(lease->query, {mid, range.end, /*donated=*/true});
      range.end = mid;
      ++ws.steals_initiated;
      obs::TraceInstant("donate", "begin", mid, qs->query_id);
    }
    enumerator->RunRoot(v);
    ++v;
    ++ws.roots_processed;
    if (enumerator->Stopped()) {
      // Deadline exceeded: cancel the query's remaining work. We hold a
      // lease, so Abort can never be the completing call here.
      queue_.Abort(lease->query);
      break;
    }
    if (queue_.aborted(lease->query)) break;
  }
  enumerator->FlushObsCounters();

  // Merge this range's stats into the query and re-zero the enumerator, so
  // the same enumerator can carry its next range (possibly of a different
  // query after a switch) without double counting. Footprint and wall time
  // are whole-query quantities, not per-range ones: candidate bytes are
  // reconstructed analytically at finalize and elapsed is the Submit->done
  // wall clock.
  EngineStats delta = enumerator->stats();
  delta.candidate_memory_bytes = 0;
  delta.elapsed_seconds = 0.0;
  ws.matches += delta.num_matches;
  {
    MutexLock lock(qs->merge_mutex);
    qs->merged.Add(delta);
  }
  enumerator->ResetStats();
  ws.busy_ns += MonotonicNs() - busy_start_ns;
  if (obs::MetricsEnabled()) obs_ranges_executed_->Inc();
}

void WorkerPool::FinalizeQuery(PoolQueryState* qs) {
  ParallelResult result;
  {
    // The queue's Done/Abort handoff sequences all merges before this
    // point; the lock is for TSan-visible clarity, not contention.
    MutexLock lock(qs->merge_mutex);
    result.stats = std::move(qs->merged);
  }
  const int threads_configured = static_cast<int>(qs->slots.size());
  result.stats.candidate_memory_bytes =
      qs->per_worker_cand_bytes * static_cast<size_t>(threads_configured);
  result.num_matches = result.stats.num_matches;
  result.elapsed_seconds = qs->timer.ElapsedSeconds();
  result.timed_out = result.stats.timed_out;
  result.threads_configured = threads_configured;
  const obs::WorkerSummary summary = obs::SummarizeWorkers(qs->slots);
  result.threads_used = summary.threads_used;
  result.load_imbalance = summary.load_imbalance;

  // Lifecycle record: scheduling timestamps plus worker attribution summed
  // over the slots (before they move into the result).
  obs::QueryStats& lc = result.lifecycle;
  lc.query_id = qs->query_id;
  const uint64_t done_ns = MonotonicNs();
  const uint64_t first_ns =
      qs->first_range_ns.load(std::memory_order_relaxed);
  if (first_ns != 0) {
    lc.queue_wait_ns =
        first_ns > qs->activate_ns ? first_ns - qs->activate_ns : 0;
    lc.execute_ns = done_ns > first_ns ? done_ns - first_ns : 0;
  }
  lc.total_ns = done_ns > qs->admit_ns ? done_ns - qs->admit_ns : 0;
  for (const obs::WorkerStats& ws : qs->slots) {
    lc.ranges_executed += ws.ranges_popped;
    lc.steals += ws.steals_received;
    lc.busy_ns += ws.busy_ns;
    lc.park_ns += ws.idle_ns;
  }
  result.workers = std::move(qs->slots);
  result.rejected = qs->rejected;

  // Detach the queue entry under abort_mutex *before* Release frees it:
  // a concurrent Cancel synchronizes on the same mutex and so never
  // dereferences a freed Query.
  MultiQueryQueue::Query* q = nullptr;
  {
    MutexLock lock(qs->abort_mutex);
    q = qs->q;
    qs->q = nullptr;
  }
  if (q != nullptr) {
    result.aborted = queue_.aborted(q);
    queue_.Release(q);
  }
  if (obs::MetricsEnabled()) {
    if (!qs->rejected) {
      obs_queries_completed_->Inc();
      obs_queue_wait_hist_->Observe(lc.queue_wait_ns);
      obs_execute_hist_->Observe(lc.execute_ns);
    }
    if (result.aborted) obs_queries_aborted_->Inc();
  }

  // The callback fires before done is published so a caller whose Wait()
  // has returned can rely on the callback's side effects having happened.
  // FinalizeQuery runs at most once per query, so "before Wait unblocks"
  // also means "exactly once". The callback object is destroyed right after
  // the call: an async submitter's on_done owns a shared_ptr to the
  // submitter-side query state, which in turn owns this handle's
  // PoolQueryState — keeping it alive would cycle the two states and leak
  // every async query.
  if (qs->spec.on_done) {
    auto on_done = std::move(qs->spec.on_done);
    qs->spec.on_done = nullptr;
    on_done(result);
  }
  {
    MutexLock lock(qs->done_mutex);
    qs->result = std::move(result);
    qs->done = true;
  }
  qs->done_cv.NotifyAll();
  // Drop the self-reference last: if the caller already discarded its
  // handle, this line destroys qs.
  std::shared_ptr<PoolQueryState> self = std::move(qs->keepalive);
}

bool WorkerPool::Cancel(const QueryHandle& handle) {
  PoolQueryState* qs = handle.state_.get();
  if (qs == nullptr) return false;
  bool completing = false;
  bool delivered = false;
  {
    MutexLock lock(qs->abort_mutex);
    if (qs->q == nullptr) return false;  // already finalized (or rejected)
    completing = queue_.Abort(qs->q);
    // Abort is a no-op when clean completion won the race; report delivery
    // only when the aborted flag actually stuck.
    delivered = queue_.aborted(qs->q);
  }
  // Abort returning true means no lease was outstanding and this call
  // completed the query: no worker will ever finalize it, so we must.
  // (Exactly one of Done/Abort completes a query, so there is no race with
  // a worker's FinalizeQuery here.)
  if (completing) FinalizeQuery(qs);
  return delivered;
}

}  // namespace light
