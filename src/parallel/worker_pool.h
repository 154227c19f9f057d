#ifndef LIGHT_PARALLEL_WORKER_POOL_H_
#define LIGHT_PARALLEL_WORKER_POOL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "graph/bitmap_index.h"
#include "graph/graph_view.h"
#include "obs/metrics.h"
#include "parallel/parallel_enumerator.h"
#include "parallel/task_queue.h"
#include "plan/plan.h"

namespace light {

namespace internal {
struct PoolQueryState;
}  // namespace internal

/// Persistent executor for the parallel enumeration of Section VII-B.
///
/// Where ParallelCount used to spawn and join fresh std::threads per call,
/// a WorkerPool starts its workers once and keeps them parked on a shared
/// MultiQueryQueue; each Submit opens a query on the queue (bootstrap root
/// chunks, generation-stamped activation) and returns a handle the caller
/// Waits on. Multiple queries — from multiple caller threads — run
/// concurrently on the same workers, interleaved range-by-range with
/// round-robin fairness and the paper's sender-initiated donation balancing
/// within each query.
///
/// Per-worker state that the one-shot runtime rebuilt per call is now
/// reused across queries: each worker owns a ScratchArena for candidate and
/// bitmap-scratch buffers, and keeps its Enumerator alive between ranges of
/// the same query (rebuilding only when it switches query).
///
/// Thread safety: Submit may be called from any number of threads. The
/// storage behind the graph view and the plan/labels/bitmap pointers in a
/// QuerySpec must stay valid until that query's Wait returns.
class WorkerPool {
 public:
  /// One enumeration request. Mirrors ParallelCount's signature; `options`
  /// carries the per-query time limit and donation tuning. A positive
  /// options.num_threads caps how many pool workers may execute this query
  /// concurrently (<= 0: the whole pool). `plan_holder`, when set, keeps a
  /// shared plan (e.g. a session's cached plan) alive for the query's
  /// lifetime; `plan` may point into it.
  struct QuerySpec {
    /// Data graph as a view; `const Graph&` converts implicitly.
    GraphView graph;
    const ExecutionPlan* plan = nullptr;
    const std::vector<uint32_t>* data_labels = nullptr;
    const BitmapIndex* bitmap_index = nullptr;
    ParallelOptions options;
    std::shared_ptr<const ExecutionPlan> plan_holder;
    /// Lifecycle identity: 0 lets Submit assign a fresh obs::NextQueryId().
    /// A session that already stamped the query passes its id through so
    /// trace lanes, watchdog snapshots, and reports agree.
    uint64_t query_id = 0;
    /// Steady-clock admit timestamp for end-to-end latency (0: Submit
    /// stamps its own entry time). Sessions stamp this before plan
    /// resolution so total_ns covers plan build too. The per-query
    /// time-limit budget is anchored here as well, so plan build and queue
    /// wait count against options.time_limit_seconds.
    uint64_t admit_ns = 0;
    /// Scheduling priority (higher drains first; see MultiQueryQueue::Open).
    int priority = 0;
    /// Completion callback, invoked exactly once when the result becomes
    /// available — from a worker thread, or inline from Submit when the
    /// query completes immediately (empty graph, admission reject). Must
    /// not call back into the pool for this query. The result reference is
    /// valid only for the duration of the call.
    std::function<void(const ParallelResult&)> on_done;
  };

  /// Blocking future for one submitted query.
  class QueryHandle {
   public:
    QueryHandle() = default;

    /// Blocks until the query completes; idempotent (returns the same
    /// result every call). Valid on a default-constructed handle only
    /// after assignment from Submit.
    ParallelResult Wait();

    /// True once the result is available (Wait would not block).
    bool done() const;

   private:
    friend class WorkerPool;
    explicit QueryHandle(std::shared_ptr<internal::PoolQueryState> state)
        : state_(std::move(state)) {}
    std::shared_ptr<internal::PoolQueryState> state_;
  };

  /// Starts `num_threads` persistent workers (<= 0: hardware concurrency,
  /// with the unspecified-zero fallback of ParallelOptions::Normalized()).
  explicit WorkerPool(int num_threads = 0);

  /// Drains in-flight queries (already-submitted work completes), then
  /// shuts the queue down and joins the workers.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Submits one query; returns immediately. The result (counts, merged
  /// engine stats, per-worker breakdown — same contract as ParallelCount)
  /// is delivered through the handle. When the admission limit is reached
  /// the returned handle is already done with result.rejected set.
  QueryHandle Submit(const QuerySpec& spec);

  /// Requests cancellation of an in-flight query: drops its pending ranges
  /// and signals lease holders to unwind (the deadline/disconnect path).
  /// Returns true when the abort was delivered while the query was still
  /// open — its result will arrive with aborted=true and partial counts —
  /// and false when the query had already completed (or the handle is
  /// empty). Safe to call concurrently with completion and repeatedly.
  bool Cancel(const QueryHandle& handle);

  /// Admission control: caps concurrently open queries; Submit beyond the
  /// cap returns an immediately-done rejected handle. <= 0: unlimited.
  void SetMaxOpenQueries(int limit) { queue_.SetMaxOpenQueries(limit); }

  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// Task-epoch stamp of the underlying queue (bumped per Activate).
  uint64_t generation() const { return queue_.generation(); }

  /// Scheduling-progress snapshot of every in-flight query (the watchdog's
  /// input; see MultiQueryQueue::SnapshotProgress / FindStuckQueries).
  std::vector<MultiQueryQueue::QueryProgress> SnapshotQueryProgress() const {
    return queue_.SnapshotProgress();
  }

 private:
  void WorkerMain(int slot);
  void ProcessLease(internal::PoolQueryState* qs, Enumerator* enumerator,
                    int slot, MultiQueryQueue::Lease* lease,
                    uint32_t* donation_ticks);
  void FinalizeQuery(internal::PoolQueryState* qs);

  MultiQueryQueue queue_;
  std::vector<std::thread> threads_;

  // Pool-level attribution (src/obs): resolved once, incremented only while
  // the registry is armed.
  obs::Counter* obs_queries_submitted_ = nullptr;
  obs::Counter* obs_queries_completed_ = nullptr;
  obs::Counter* obs_queries_rejected_ = nullptr;
  obs::Counter* obs_queries_aborted_ = nullptr;
  obs::Counter* obs_ranges_executed_ = nullptr;
  obs::Histogram* obs_queue_wait_hist_ = nullptr;
  obs::Histogram* obs_execute_hist_ = nullptr;
};

}  // namespace light

#endif  // LIGHT_PARALLEL_WORKER_POOL_H_
