#include "parallel/task_queue.h"

#include <cassert>
#include <cstddef>
#include <deque>
#include <vector>

namespace light {

/// All mutable fields are guarded by MultiQueryQueue::mutex_ except
/// `aborted`, which lease holders poll without the lock. `leases` is written
/// only under the lock but is atomic so the donation check can read it
/// without one.
struct MultiQueryQueue::Query {
  void* context = nullptr;
  uint64_t query_id = 0;
  int max_leases = 0;  // <= 0: uncapped
  int priority = 0;    // higher drains first
  bool active = false;
  bool completed = false;
  std::atomic<int> leases{0};
  /// Lease-movement counter: bumped whenever a range is handed out (Pop)
  /// or returned (Done), and on Abort. The watchdog compares snapshots of
  /// this to find queries whose leases stopped advancing.
  uint64_t progress = 0;
  std::deque<RootRange> pending;
  std::atomic<bool> aborted{false};
};

MultiQueryQueue::~MultiQueryQueue() {
  MutexLock lock(mutex_);
  // Completed queries are freed by Release; anything still listed here was
  // abandoned by the caller (pool torn down mid-query). Free it defensively.
  for (Query* q : queries_) delete q;
}

MultiQueryQueue::Query* MultiQueryQueue::Open(void* context, int max_leases,
                                              uint64_t query_id,
                                              int priority) {
  auto* q = new Query();
  q->context = context;
  q->query_id = query_id;
  q->max_leases = max_leases;
  q->priority = priority;
  {
    MutexLock lock(mutex_);
    assert(!shutdown_ && "Open after Shutdown");
    // Admission control: bound the number of open queries so a burst past
    // the serving capacity is rejected immediately instead of queueing
    // without bound (the RADS overload argument). Completed-but-unreleased
    // queries don't count — their work is done, only their finalizer is
    // pending.
    if (max_open_queries_ > 0) {
      int open = 0;
      for (const Query* other : queries_) {
        if (!other->completed) ++open;
      }
      if (open >= max_open_queries_) {
        num_rejected_.fetch_add(1, std::memory_order_relaxed);
        delete q;
        return nullptr;
      }
    }
    queries_.push_back(q);
  }
  return q;
}

void MultiQueryQueue::SetMaxOpenQueries(int limit) {
  MutexLock lock(mutex_);
  max_open_queries_ = limit;
}

void MultiQueryQueue::Push(Query* q, RootRange range) {
  if (range.size() <= 0) return;
  bool notify;
  {
    MutexLock lock(mutex_);
    assert(!q->completed && "Push on completed query");
    // A lease holder may donate after the query was aborted (it has not
    // polled aborted() yet); re-queueing the range would only hand doomed
    // work to another worker, so drop it.
    if (q->aborted.load(std::memory_order_relaxed)) return;
    q->pending.push_back(range);
    // Before Activate nobody can pop this query, so waking a worker would
    // be a spurious wakeup; Activate notifies instead.
    notify = q->active;
  }
  if (notify) cv_.NotifyOne();
}

bool MultiQueryQueue::Activate(Query* q) {
  bool completed_immediately;
  {
    MutexLock lock(mutex_);
    assert(!q->active && "double Activate");
    q->active = true;
    // Nothing was ever pushed (e.g. zero root candidates): no Pop/Done
    // cycle will run, so the query is already done. Mark it so Release's
    // precondition holds and workers skip it.
    completed_immediately = q->pending.empty();
    if (completed_immediately) q->completed = true;
    generation_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!completed_immediately) cv_.NotifyAll();
  return completed_immediately;
}

MultiQueryQueue::Query* MultiQueryQueue::PickLocked() {
  // Highest priority class first; round-robin within the class starting at
  // cursor_, so concurrent queries of equal priority share the pool instead
  // of the earliest-opened one starving the rest. A query is poppable when
  // active, has pending work, and has a free lease slot. Priority is
  // non-preemptive: leases already held by lower-priority queries run to
  // completion, but no new range of a lower class is handed out while a
  // higher class has poppable work.
  const size_t n = queries_.size();
  Query* best = nullptr;
  size_t best_offset = 0;
  for (size_t i = 0; i < n; ++i) {
    Query* q = queries_[(cursor_ + i) % n];
    if (!q->active || q->completed || q->pending.empty()) continue;
    if (q->max_leases > 0 && q->leases.load(std::memory_order_relaxed) >= q->max_leases) continue;
    if (best == nullptr || q->priority > best->priority) {
      best = q;
      best_offset = i;
    }
  }
  if (best != nullptr) cursor_ = (cursor_ + best_offset + 1) % n;
  return best;
}

bool MultiQueryQueue::Pop(Lease* out) {
  MutexLock lock(mutex_);
  for (;;) {
    Query* q = PickLocked();
    if (q != nullptr) {
      out->query = q;
      out->context = q->context;
      out->range = q->pending.front();
      q->pending.pop_front();
      q->leases.fetch_add(1, std::memory_order_relaxed);
      ++q->progress;
      return true;
    }
    if (shutdown_) return false;
    num_waiting_.fetch_add(1, std::memory_order_relaxed);
    cv_.Wait(lock);
    num_waiting_.fetch_sub(1, std::memory_order_relaxed);
  }
}

bool MultiQueryQueue::Done(const Lease& lease) {
  Query* q = lease.query;
  bool notify;
  bool last;
  {
    MutexLock lock(mutex_);
    assert(q->leases.load(std::memory_order_relaxed) > 0 &&
           "Done without a lease");
    q->leases.fetch_sub(1, std::memory_order_relaxed);
    ++q->progress;
    last = q->active && !q->completed && q->pending.empty() &&
           q->leases.load(std::memory_order_relaxed) == 0;
    if (last) q->completed = true;
    // A donation by this worker may still be sitting in pending with every
    // other worker parked; make sure somebody picks it up.
    notify = !last && !q->pending.empty();
  }
  if (notify) cv_.NotifyOne();
  return last;
}

bool MultiQueryQueue::Abort(Query* q) {
  bool last;
  {
    MutexLock lock(mutex_);
    // Completion already won the race: the query drained cleanly, so the
    // abort is a no-op — its counts are full and must not be flagged
    // partial.
    if (q->completed) return false;
    q->aborted.store(true, std::memory_order_relaxed);
    q->pending.clear();
    ++q->progress;
    last = q->active && !q->completed &&
           q->leases.load(std::memory_order_relaxed) == 0;
    if (last) q->completed = true;
  }
  return last;
}

bool MultiQueryQueue::aborted(const Query* q) const {
  return q->aborted.load(std::memory_order_relaxed);
}

bool MultiQueryQueue::HasFreeLeaseSlot(const Query* q) const {
  // max_leases is fixed at Open, before any worker can see the query.
  return q->max_leases <= 0 ||
         q->leases.load(std::memory_order_relaxed) < q->max_leases;
}

bool MultiQueryQueue::Release(Query* q) {
  {
    MutexLock lock(mutex_);
    // Reaping a query that still has pending work or outstanding leases
    // would free state a worker is about to touch; reject instead of
    // freeing (the completing Done/Abort call re-Releases it).
    if (!q->completed) return false;
    for (size_t i = 0; i < queries_.size(); ++i) {
      if (queries_[i] == q) {
        queries_.erase(queries_.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
    if (cursor_ >= queries_.size()) cursor_ = 0;
  }
  delete q;
  return true;
}

void MultiQueryQueue::Shutdown() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
    generation_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.NotifyAll();
}

int MultiQueryQueue::num_open_queries() const {
  MutexLock lock(mutex_);
  int n = 0;
  for (const Query* q : queries_) {
    if (!q->completed) ++n;
  }
  return n;
}

std::vector<MultiQueryQueue::QueryProgress>
MultiQueryQueue::SnapshotProgress() const {
  MutexLock lock(mutex_);
  std::vector<QueryProgress> snapshot;
  snapshot.reserve(queries_.size());
  for (const Query* q : queries_) {
    if (q->completed) continue;
    QueryProgress p;
    p.query_id = q->query_id;
    p.progress = q->progress;
    p.pending_ranges = q->pending.size();
    p.leases = q->leases.load(std::memory_order_relaxed);
    p.priority = q->priority;
    p.active = q->active;
    p.aborted = q->aborted.load(std::memory_order_relaxed);
    snapshot.push_back(p);
  }
  return snapshot;
}

std::vector<uint64_t> FindStuckQueries(
    const std::vector<MultiQueryQueue::QueryProgress>& prev,
    const std::vector<MultiQueryQueue::QueryProgress>& curr) {
  std::vector<uint64_t> stuck;
  for (const MultiQueryQueue::QueryProgress& now : curr) {
    if (!now.active || now.aborted) continue;
    for (const MultiQueryQueue::QueryProgress& then : prev) {
      if (then.query_id != now.query_id) continue;
      if (then.progress == now.progress) stuck.push_back(now.query_id);
      break;
    }
  }
  return stuck;
}

}  // namespace light
