#ifndef LIGHT_PARALLEL_TASK_QUEUE_H_
#define LIGHT_PARALLEL_TASK_QUEUE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/lock_ranks.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"

namespace light {

/// A contiguous range of root candidates (bindings of pi[1]); the unit of
/// work-sharing in the parallel DFS of Section VII-B.
struct RootRange {
  VertexID begin = 0;
  VertexID end = 0;
  /// True when this range was donated by a busy worker (as opposed to the
  /// bootstrap chunks); lets the receiver account it as a received steal.
  bool donated = false;
  VertexID size() const { return end - begin; }
};

/// The global concurrent queue of Section VII-B, generalized from one run to
/// many: a single queue instance schedules root ranges for any number of
/// concurrent queries, which is what lets one persistent WorkerPool serve a
/// stream of enumerations instead of spawning threads per call.
///
/// Lifecycle of a query:
///   Query* q = queue.Open(ctx);     // invisible to workers
///   queue.Push(q, range); ...       // bootstrap chunks
///   queue.Activate(q);              // published; workers may Pop its ranges
///   ... workers: Pop -> process -> Done, donating halves via Push ...
///   queue.Release(q);               // after completion, by the finalizer
///
/// Termination is exact per query: a query completes when it is active, has
/// no pending ranges, and no outstanding leases (ranges popped but not yet
/// Done). The two-phase Open/Activate split exists so a half-bootstrapped
/// query (submitter still pushing chunks) can never be mistaken for a
/// drained one. After Activate, only lease holders push (donation), so the
/// pending+leases accounting can hit zero exactly once.
///
/// Sender-initiated stealing carries over unchanged: parked workers block in
/// Pop; busy workers poll IdleWorkersWaiting() and donate half of their
/// remaining range when somebody is starving, waking the idle worker almost
/// immediately [2].
class MultiQueryQueue {
 public:
  /// Per-query scheduling state; opaque to callers.
  struct Query;

  /// A popped range plus the query it belongs to. `context` is the pointer
  /// the query was opened with (the pool's per-query execution state).
  struct Lease {
    Query* query = nullptr;
    void* context = nullptr;
    RootRange range;
  };

  MultiQueryQueue() = default;
  ~MultiQueryQueue();

  MultiQueryQueue(const MultiQueryQueue&) = delete;
  MultiQueryQueue& operator=(const MultiQueryQueue&) = delete;

  /// Opens an inactive query. `max_leases` caps how many workers may hold
  /// one of its ranges concurrently (<= 0: uncapped) — how a query asking
  /// for fewer threads than the pool has shares the pool. `query_id` tags
  /// the query in progress snapshots (the watchdog's identity key).
  /// `priority` orders scheduling: higher-priority queries are always
  /// drained before lower ones; within one priority class the round-robin
  /// fairness of PR 5 is preserved. Returns nullptr when the admission
  /// limit (SetMaxOpenQueries) is reached — the structured overload-reject
  /// signal; the caller must not Push/Activate anything in that case.
  Query* Open(void* context, int max_leases = 0, uint64_t query_id = 0,
              int priority = 0) LIGHT_EXCLUDES(mutex_);

  /// Admission control: caps the number of open (uncompleted) queries.
  /// Open beyond the cap returns nullptr instead of queueing. <= 0 (the
  /// default) disables the limit. Takes effect for subsequent Opens only.
  void SetMaxOpenQueries(int limit) LIGHT_EXCLUDES(mutex_);

  /// Total Opens rejected by the admission limit since construction.
  uint64_t num_rejected() const {
    return num_rejected_.load(std::memory_order_relaxed);
  }

  /// Adds a range (empty ranges are ignored). Legal before Activate
  /// (bootstrap) and from a lease holder afterwards (donation).
  void Push(Query* q, RootRange range) LIGHT_EXCLUDES(mutex_);

  /// Publishes q to the workers and stamps a new task epoch. Returns true
  /// when the query completed immediately (nothing was pushed — e.g. an
  /// empty graph); the caller must then finalize and Release it, since no
  /// worker will ever see it.
  bool Activate(Query* q) LIGHT_EXCLUDES(mutex_);

  /// Blocks until a range from some active query is available (honoring
  /// per-query lease caps, round-robin across queries) or Shutdown was
  /// called and every pending range has been handed out (returns false).
  bool Pop(Lease* out) LIGHT_EXCLUDES(mutex_);

  /// Returns a lease. True when this was the query's last outstanding work —
  /// the caller must finalize the query (exactly one Done per query returns
  /// true) and eventually Release it.
  bool Done(const Lease& lease) LIGHT_EXCLUDES(mutex_);

  /// Drops q's pending ranges and marks it aborted (visible to lease
  /// holders via aborted(), the cooperative cancellation signal on
  /// time-out). Outstanding leases still finish through Done. Returns true
  /// when this call itself completed the query (no leases were out); the
  /// caller must then finalize and Release, exactly as for Done. Aborting
  /// an already-completed query is a no-op (aborted() stays false): clean
  /// completion winning the race keeps its full counts.
  bool Abort(Query* q) LIGHT_EXCLUDES(mutex_);

  bool aborted(const Query* q) const;

  /// Approximate donation signal: true when some worker is parked in Pop.
  /// One relaxed load; workers only park when nothing is poppable anywhere,
  /// so a parked worker means a donated range would be picked up at once.
  bool IdleWorkersWaiting() const {
    return num_waiting_.load(std::memory_order_relaxed) > 0;
  }

  /// Approximate: true when q is below its lease cap (or uncapped), so a
  /// range it donates can be picked up. One relaxed load; Pop skips a query
  /// at its cap, so donating there only splits work no worker may take.
  bool HasFreeLeaseSlot(const Query* q) const;

  /// Frees a completed query's state. Legal only after Done/Abort returned
  /// true for it (or Activate returned true); a premature Release — the
  /// query still has pending ranges or outstanding leases — is rejected
  /// (returns false, nothing freed) instead of use-after-freeing workers.
  bool Release(Query* q) LIGHT_EXCLUDES(mutex_);

  /// Wakes everyone; Pop keeps draining already-pushed ranges, then returns
  /// false. New Opens are not accepted afterwards.
  void Shutdown() LIGHT_EXCLUDES(mutex_);

  /// Task-epoch stamp: bumped on every Activate and on Shutdown. Lets
  /// observers (tests, obs counters) tell scheduling rounds apart without
  /// taking the queue lock.
  uint64_t generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

  /// Number of open (activated or not, uncompleted) queries; test hook.
  int num_open_queries() const LIGHT_EXCLUDES(mutex_);

  /// Point-in-time scheduling state of one open query, for the stuck-query
  /// watchdog and slow-query log. `progress` counts lease grants and
  /// returns (Pop/Done/Abort transitions): a live query's progress advances
  /// whenever the queue hands out or takes back work, so two snapshots with
  /// equal progress mean no range changed hands in between.
  struct QueryProgress {
    uint64_t query_id = 0;
    uint64_t progress = 0;
    uint64_t pending_ranges = 0;
    int leases = 0;
    int priority = 0;
    bool active = false;
    bool aborted = false;
  };

  /// Snapshots every open, uncompleted query (one lock acquisition).
  std::vector<QueryProgress> SnapshotProgress() const
      LIGHT_EXCLUDES(mutex_);

 private:
  Query* PickLocked() LIGHT_REQUIRES(mutex_);

  mutable Mutex mutex_{lockrank::kTaskQueue, "MultiQueryQueue::mutex_"};
  CondVar cv_;
  /// Open, not yet completed queries. The Query structs themselves (defined
  /// in the .cc) are also guarded by mutex_, except their atomic `aborted`
  /// flag which lease holders poll lock-free.
  std::vector<Query*> queries_ LIGHT_GUARDED_BY(mutex_);
  /// Round-robin position into queries_.
  size_t cursor_ LIGHT_GUARDED_BY(mutex_) = 0;
  bool shutdown_ LIGHT_GUARDED_BY(mutex_) = false;
  /// <= 0: unlimited.
  int max_open_queries_ LIGHT_GUARDED_BY(mutex_) = 0;
  std::atomic<int> num_waiting_{0};
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint64_t> num_rejected_{0};
};

/// Stuck-query detection (pure; the watchdog's core): ids of queries that
/// appear in both snapshots, are still active and unaborted, and whose
/// progress counter has not advanced between them. A long window between
/// snapshots makes this a "no lease movement within the window" signal —
/// groundwork for deadline enforcement. Note a single enormous root range
/// keeps one lease legitimately for its whole duration; pick windows above
/// the expected per-range time.
std::vector<uint64_t> FindStuckQueries(
    const std::vector<MultiQueryQueue::QueryProgress>& prev,
    const std::vector<MultiQueryQueue::QueryProgress>& curr);

}  // namespace light

#endif  // LIGHT_PARALLEL_TASK_QUEUE_H_
