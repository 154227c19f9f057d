#include "parallel/parallel_enumerator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <thread>

#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"
#include "parallel/task_queue.h"
#include "parallel/worker_pool.h"
#include "pattern/catalog.h"

namespace light {
namespace {

TEST(MultiQueryQueueTest, DrainsOneQueryAndCompletesOnLastDone) {
  MultiQueryQueue queue;
  int context = 0;
  MultiQueryQueue::Query* q = queue.Open(&context);
  queue.Push(q, {0, 10});
  queue.Push(q, {10, 20});
  EXPECT_FALSE(queue.Activate(q));

  MultiQueryQueue::Lease a;
  MultiQueryQueue::Lease b;
  ASSERT_TRUE(queue.Pop(&a));
  EXPECT_EQ(a.context, &context);
  EXPECT_EQ(a.range.begin, 0u);
  ASSERT_TRUE(queue.Pop(&b));
  EXPECT_EQ(b.range.begin, 10u);
  // Two leases out: returning the first is not completion.
  EXPECT_FALSE(queue.Done(a));
  // Returning the last one is, exactly once.
  EXPECT_TRUE(queue.Done(b));
  queue.Release(q);
  EXPECT_EQ(queue.num_open_queries(), 0);
}

TEST(MultiQueryQueueTest, EmptyRangesIgnoredAndEmptyQueryCompletesAtActivate) {
  MultiQueryQueue queue;
  MultiQueryQueue::Query* q = queue.Open(nullptr);
  queue.Push(q, {5, 5});
  // Nothing pushed => the query completes immediately at Activate and the
  // caller must finalize it (no worker will ever pop it).
  EXPECT_TRUE(queue.Activate(q));
  queue.Release(q);
}

TEST(MultiQueryQueueTest, InactiveQueryInvisibleToPop) {
  MultiQueryQueue queue;
  MultiQueryQueue::Query* hidden = queue.Open(nullptr);
  queue.Push(hidden, {0, 100});  // bootstrap, not yet activated
  MultiQueryQueue::Query* live = queue.Open(nullptr);
  queue.Push(live, {7, 8});
  EXPECT_FALSE(queue.Activate(live));
  MultiQueryQueue::Lease lease;
  ASSERT_TRUE(queue.Pop(&lease));
  // Only the activated query's range is poppable.
  EXPECT_EQ(lease.query, live);
  EXPECT_EQ(lease.range.begin, 7u);
  EXPECT_TRUE(queue.Done(lease));
  queue.Release(live);
  EXPECT_FALSE(queue.Activate(hidden));
  ASSERT_TRUE(queue.Pop(&lease));
  EXPECT_EQ(lease.query, hidden);
  EXPECT_TRUE(queue.Done(lease));
  queue.Release(hidden);
}

TEST(MultiQueryQueueTest, RoundRobinInterleavesQueries) {
  MultiQueryQueue queue;
  MultiQueryQueue::Query* q1 = queue.Open(nullptr);
  MultiQueryQueue::Query* q2 = queue.Open(nullptr);
  for (VertexID i = 0; i < 4; ++i) {
    queue.Push(q1, {i, i + 1});
    queue.Push(q2, {i, i + 1});
  }
  EXPECT_FALSE(queue.Activate(q1));
  EXPECT_FALSE(queue.Activate(q2));
  // Pop with immediate Done: consecutive pops must alternate queries.
  MultiQueryQueue::Lease lease;
  std::vector<MultiQueryQueue::Query*> order;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(queue.Pop(&lease));
    order.push_back(lease.query);
    const bool last = queue.Done(lease);
    if (last) queue.Release(lease.query);
  }
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_NE(order[i], order[i - 1]) << "pop " << i << " did not alternate";
  }
}

TEST(MultiQueryQueueTest, LeaseCapLimitsConcurrentHolders) {
  MultiQueryQueue queue;
  MultiQueryQueue::Query* q = queue.Open(nullptr, /*max_leases=*/1);
  queue.Push(q, {0, 1});
  queue.Push(q, {1, 2});
  EXPECT_FALSE(queue.Activate(q));
  MultiQueryQueue::Lease first;
  ASSERT_TRUE(queue.Pop(&first));
  // Second range exists, but the cap (1) blocks a second lease; a blocked
  // Pop must wake and get it once the first lease is returned.
  std::thread second_popper([&] {
    MultiQueryQueue::Lease second;
    ASSERT_TRUE(queue.Pop(&second));
    EXPECT_EQ(second.range.begin, 1u);
    if (queue.Done(second)) queue.Release(q);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(queue.IdleWorkersWaiting());
  EXPECT_FALSE(queue.Done(first));
  second_popper.join();
}

TEST(MultiQueryQueueTest, AbortDropsPendingAndFlagsLeaseHolders) {
  MultiQueryQueue queue;
  MultiQueryQueue::Query* q = queue.Open(nullptr);
  queue.Push(q, {0, 10});
  queue.Push(q, {10, 20});
  EXPECT_FALSE(queue.Activate(q));
  MultiQueryQueue::Lease lease;
  ASSERT_TRUE(queue.Pop(&lease));
  EXPECT_FALSE(queue.aborted(q));
  // A lease is out, so Abort cannot be the completing call.
  EXPECT_FALSE(queue.Abort(q));
  EXPECT_TRUE(queue.aborted(q));
  // Pending range was dropped; returning the lease completes the query.
  EXPECT_TRUE(queue.Done(lease));
  queue.Release(q);
}

TEST(MultiQueryQueueTest, ReleaseAfterAbortWithOutstandingLeases) {
  MultiQueryQueue queue;
  MultiQueryQueue::Query* q = queue.Open(nullptr);
  queue.Push(q, {0, 10});
  queue.Push(q, {10, 20});
  queue.Push(q, {20, 30});
  EXPECT_FALSE(queue.Activate(q));
  MultiQueryQueue::Lease a;
  MultiQueryQueue::Lease b;
  ASSERT_TRUE(queue.Pop(&a));
  ASSERT_TRUE(queue.Pop(&b));
  // Two leases out: Abort drops the third (pending) range but cannot be
  // the completing call.
  EXPECT_FALSE(queue.Abort(q));
  EXPECT_TRUE(queue.aborted(q));
  // Exactly one of the lease returns completes the query; Release is only
  // legal after that one.
  EXPECT_FALSE(queue.Done(a));
  EXPECT_TRUE(queue.Done(b));
  EXPECT_TRUE(queue.Release(q));
  EXPECT_EQ(queue.num_open_queries(), 0);
}

TEST(MultiQueryQueueTest, PrematureReleaseRejected) {
  MultiQueryQueue queue;
  MultiQueryQueue::Query* q = queue.Open(nullptr);
  queue.Push(q, {0, 10});
  EXPECT_FALSE(queue.Activate(q));
  MultiQueryQueue::Lease lease;
  ASSERT_TRUE(queue.Pop(&lease));
  // Reaping while a lease is outstanding must be refused, not freed.
  EXPECT_FALSE(queue.Release(q));
  EXPECT_EQ(queue.num_open_queries(), 1);
  EXPECT_TRUE(queue.Done(lease));
  EXPECT_TRUE(queue.Release(q));
  EXPECT_EQ(queue.num_open_queries(), 0);
}

TEST(MultiQueryQueueTest, AbortAfterCompletionIsNoOp) {
  MultiQueryQueue queue;
  MultiQueryQueue::Query* q = queue.Open(nullptr);
  queue.Push(q, {0, 1});
  EXPECT_FALSE(queue.Activate(q));
  MultiQueryQueue::Lease lease;
  ASSERT_TRUE(queue.Pop(&lease));
  EXPECT_TRUE(queue.Done(lease));
  // Clean completion won the race: a late Abort (e.g. a deadline firing
  // just as the query finishes) must not retroactively flag it.
  EXPECT_FALSE(queue.Abort(q));
  EXPECT_FALSE(queue.aborted(q));
  EXPECT_TRUE(queue.Release(q));
}

TEST(MultiQueryQueueTest, PriorityDrainsHigherClassFirst) {
  MultiQueryQueue queue;
  MultiQueryQueue::Query* low = queue.Open(nullptr, 0, /*query_id=*/1,
                                           /*priority=*/0);
  MultiQueryQueue::Query* high = queue.Open(nullptr, 0, /*query_id=*/2,
                                            /*priority=*/5);
  for (VertexID i = 0; i < 3; ++i) {
    queue.Push(low, {i, i + 1});
    queue.Push(high, {i, i + 1});
  }
  EXPECT_FALSE(queue.Activate(low));
  EXPECT_FALSE(queue.Activate(high));
  // All of the high class drains before any of the low class
  // (non-preemptive strict priority across classes).
  MultiQueryQueue::Lease lease;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(queue.Pop(&lease));
    EXPECT_EQ(lease.query, high) << "pop " << i;
    if (queue.Done(lease)) queue.Release(high);
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(queue.Pop(&lease));
    EXPECT_EQ(lease.query, low) << "pop " << i;
    if (queue.Done(lease)) queue.Release(low);
  }
  EXPECT_EQ(queue.num_open_queries(), 0);
}

TEST(MultiQueryQueueTest, EqualPriorityKeepsRoundRobin) {
  MultiQueryQueue queue;
  MultiQueryQueue::Query* q1 = queue.Open(nullptr, 0, 1, /*priority=*/3);
  MultiQueryQueue::Query* q2 = queue.Open(nullptr, 0, 2, /*priority=*/3);
  for (VertexID i = 0; i < 3; ++i) {
    queue.Push(q1, {i, i + 1});
    queue.Push(q2, {i, i + 1});
  }
  EXPECT_FALSE(queue.Activate(q1));
  EXPECT_FALSE(queue.Activate(q2));
  MultiQueryQueue::Lease lease;
  std::vector<MultiQueryQueue::Query*> order;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(queue.Pop(&lease));
    order.push_back(lease.query);
    if (queue.Done(lease)) queue.Release(lease.query);
  }
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_NE(order[i], order[i - 1]) << "pop " << i << " did not alternate";
  }
}

TEST(MultiQueryQueueTest, AdmissionLimitRejectsOpenUntilRelease) {
  MultiQueryQueue queue;
  queue.SetMaxOpenQueries(1);
  MultiQueryQueue::Query* q = queue.Open(nullptr);
  ASSERT_NE(q, nullptr);
  // Depth limit reached: the second Open is rejected outright.
  EXPECT_EQ(queue.Open(nullptr), nullptr);
  EXPECT_EQ(queue.num_rejected(), 1u);
  EXPECT_EQ(queue.num_open_queries(), 1);
  // Completing + releasing the first frees the slot.
  EXPECT_TRUE(queue.Activate(q));  // nothing pushed: immediate completion
  EXPECT_TRUE(queue.Release(q));
  MultiQueryQueue::Query* next = queue.Open(nullptr);
  ASSERT_NE(next, nullptr);
  EXPECT_TRUE(queue.Activate(next));
  EXPECT_TRUE(queue.Release(next));
  EXPECT_EQ(queue.num_rejected(), 1u);
}

TEST(MultiQueryQueueTest, ShutdownWakesWaitersAfterDrain) {
  MultiQueryQueue queue;
  MultiQueryQueue::Query* q = queue.Open(nullptr);
  queue.Push(q, {0, 1});
  EXPECT_FALSE(queue.Activate(q));
  const uint64_t gen_before = queue.generation();
  std::thread waiter([&] {
    MultiQueryQueue::Lease lease;
    // Drains the one pending range...
    ASSERT_TRUE(queue.Pop(&lease));
    if (queue.Done(lease)) queue.Release(lease.query);
    // ...then blocks until Shutdown returns false.
    MultiQueryQueue::Lease none;
    EXPECT_FALSE(queue.Pop(&none));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Shutdown();
  waiter.join();
  // Activate and Shutdown each stamp a new task epoch.
  EXPECT_GE(queue.generation(), gen_before + 1);
}

TEST(WorkerPoolTest, ServesQueriesAcrossSubmitsAndMatchesSerial) {
  const Graph g = RelabelByDegree(BarabasiAlbert(1500, 5, /*seed=*/41));
  const GraphStats stats = ComputeGraphStats(g);
  Pattern p2;
  ASSERT_TRUE(FindPattern("P2", &p2).ok());
  const ExecutionPlan plan = BuildPlan(p2, g, stats, PlanOptions::Light());
  Enumerator serial(g, plan);
  const uint64_t expected = serial.Count();

  WorkerPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  WorkerPool::QuerySpec spec;
  spec.graph = GraphView(g);
  spec.plan = &plan;
  // Same pool, back-to-back queries: worker enumerators/arenas are reused.
  const uint64_t gen_before = pool.generation();
  for (int i = 0; i < 3; ++i) {
    WorkerPool::QueryHandle handle = pool.Submit(spec);
    const ParallelResult result = handle.Wait();
    EXPECT_EQ(result.num_matches, expected) << "submit " << i;
    EXPECT_EQ(result.threads_configured, 4);
    EXPECT_EQ(result.workers.size(), 4u);
  }
  EXPECT_GE(pool.generation(), gen_before + 3);
}

// Pool workers count from the enumerator they build, with no visitor set:
// a twin-closure plan (the 4-cycle) closes there too, so the parallel run
// intersects nothing and matches the serial one, MAT counts included.
TEST(WorkerPoolTest, PoolWorkersTakeTheTwinClosure) {
  const Graph g = RelabelByDegree(BarabasiAlbert(1500, 5, /*seed=*/43));
  Pattern p1;
  ASSERT_TRUE(FindPattern("P1", &p1).ok());
  const ExecutionPlan plan =
      BuildPlan(p1, g, ComputeGraphStats(g), PlanOptions::Light());
  ASSERT_GE(plan.leaf.b, 0) << plan.ToString();
  Enumerator serial(g, plan);
  const uint64_t expected = serial.Count();
  ParallelOptions options;
  options.num_threads = 4;
  const ParallelResult result = ParallelCount(g, plan, options);
  EXPECT_EQ(result.num_matches, expected);
  EXPECT_EQ(result.stats.intersections.num_intersections, 0u);
  EXPECT_EQ(result.stats.mat_counts, serial.stats().mat_counts);
}

// Pool workers take a twin leaf the same way: the parallel P5 (book4) run
// never computes the pages' alias COMPs and matches the serial one.
TEST(WorkerPoolTest, PoolWorkersTakeTheTwinLeaf) {
  const Graph g = RelabelByDegree(BarabasiAlbert(1500, 5, /*seed=*/43));
  Pattern p5;
  ASSERT_TRUE(FindPattern("P5", &p5).ok());
  const ExecutionPlan plan =
      BuildPlan(p5, g, ComputeGraphStats(g), PlanOptions::Light());
  ASSERT_EQ(plan.leaf.tail, (std::vector<int>{2, 3, 4, 5}))
      << plan.ToString();
  Enumerator serial(g, plan);
  const uint64_t expected = serial.Count();
  ParallelOptions options;
  options.num_threads = 4;
  const ParallelResult result = ParallelCount(g, plan, options);
  EXPECT_EQ(result.num_matches, expected);
  EXPECT_EQ(result.stats.mat_counts, serial.stats().mat_counts);
  EXPECT_EQ(result.stats.num_partial_results,
            serial.stats().num_partial_results);
  for (const size_t page : {3u, 4u, 5u}) {
    EXPECT_EQ(result.stats.comp_counts[page], 0u) << "u" << page;
  }
}

// A query capped at one lease never donates: the pool's other workers park
// idle, but Pop skips a query at its cap, so a split would only halve its
// range for workers that cannot take it.
TEST(WorkerPoolTest, QueryAtItsLeaseCapDoesNotDonate) {
  const Graph g = RelabelByDegree(BarabasiAlbert(1500, 5, /*seed=*/43));
  Pattern p2;
  ASSERT_TRUE(FindPattern("P2", &p2).ok());
  const ExecutionPlan plan =
      BuildPlan(p2, g, ComputeGraphStats(g), PlanOptions::Light());
  Enumerator serial(g, plan);
  const uint64_t expected = serial.Count();

  WorkerPool pool(3);
  WorkerPool::QuerySpec spec;
  spec.graph = GraphView(g);
  spec.plan = &plan;
  spec.options.num_threads = 1;
  // Check for idle peers at every root and split down to single roots.
  spec.options.donation_check_interval = 1;
  spec.options.min_split_size = 1;
  const ParallelResult result = pool.Submit(spec).Wait();
  EXPECT_EQ(result.num_matches, expected);
  uint64_t initiated = 0;
  for (const obs::WorkerStats& w : result.workers) {
    initiated += w.steals_initiated;
  }
  EXPECT_EQ(initiated, 0u);
}

TEST(WorkerPoolTest, ConcurrentQueriesShareThePool) {
  const Graph g = RelabelByDegree(BarabasiAlbert(1200, 5, /*seed=*/43));
  const GraphStats stats = ComputeGraphStats(g);
  Pattern p1;
  Pattern p2;
  ASSERT_TRUE(FindPattern("P1", &p1).ok());
  ASSERT_TRUE(FindPattern("P2", &p2).ok());
  const ExecutionPlan plan1 = BuildPlan(p1, g, stats, PlanOptions::Light());
  const ExecutionPlan plan2 = BuildPlan(p2, g, stats, PlanOptions::Light());
  Enumerator serial1(g, plan1);
  Enumerator serial2(g, plan2);
  const uint64_t expected1 = serial1.Count();
  const uint64_t expected2 = serial2.Count();

  WorkerPool pool(4);
  WorkerPool::QuerySpec spec1;
  spec1.graph = GraphView(g);
  spec1.plan = &plan1;
  WorkerPool::QuerySpec spec2;
  spec2.graph = GraphView(g);
  spec2.plan = &plan2;
  // Interleaved in-flight queries on one pool; counts stay exact.
  std::vector<WorkerPool::QueryHandle> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(pool.Submit(i % 2 == 0 ? spec1 : spec2));
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(handles[static_cast<size_t>(i)].Wait().num_matches,
              i % 2 == 0 ? expected1 : expected2)
        << "query " << i;
  }
}

TEST(WorkerPoolTest, HandleOutlivesWaitAndIsIdempotent) {
  const Graph g = RelabelByDegree(ErdosRenyi(300, 900, /*seed=*/7));
  const GraphStats stats = ComputeGraphStats(g);
  Pattern tri;
  ASSERT_TRUE(FindPattern("triangle", &tri).ok());
  const ExecutionPlan plan = BuildPlan(tri, g, stats, PlanOptions::Light());
  WorkerPool pool(2);
  WorkerPool::QuerySpec spec;
  spec.graph = GraphView(g);
  spec.plan = &plan;
  WorkerPool::QueryHandle handle = pool.Submit(spec);
  const ParallelResult first = handle.Wait();
  const ParallelResult second = handle.Wait();
  EXPECT_TRUE(handle.done());
  EXPECT_EQ(first.num_matches, second.num_matches);
  EXPECT_EQ(first.threads_configured, second.threads_configured);
}

TEST(WorkerPoolTest, EmptyGraphCompletesImmediately) {
  GraphBuilder builder(0);
  const Graph g = builder.Build();
  const GraphStats stats = ComputeGraphStats(g);
  Pattern tri;
  ASSERT_TRUE(FindPattern("triangle", &tri).ok());
  const ExecutionPlan plan = BuildPlan(tri, g, stats, PlanOptions::Light());
  WorkerPool pool(2);
  WorkerPool::QuerySpec spec;
  spec.graph = GraphView(g);
  spec.plan = &plan;
  WorkerPool::QueryHandle handle = pool.Submit(spec);
  const ParallelResult result = handle.Wait();
  EXPECT_EQ(result.num_matches, 0u);
  EXPECT_FALSE(result.timed_out);
}

TEST(WorkerPoolTest, CancelAbortsInFlightQuery) {
  // Big enough that the query is still running when Cancel lands; one
  // worker thread so ranges queue up behind a single consumer.
  const Graph g = RelabelByDegree(BarabasiAlbert(20000, 8, /*seed=*/29));
  const GraphStats stats = ComputeGraphStats(g);
  Pattern p6;
  ASSERT_TRUE(FindPattern("P6", &p6).ok());
  const ExecutionPlan plan = BuildPlan(p6, g, stats, PlanOptions::Light());
  WorkerPool pool(1);
  WorkerPool::QuerySpec spec;
  spec.graph = GraphView(g);
  spec.plan = &plan;
  WorkerPool::QueryHandle handle = pool.Submit(spec);
  // Cancel returns true while the abort could still be delivered; the
  // query then finishes as aborted with whatever partial count it had.
  const bool delivered = pool.Cancel(handle);
  const ParallelResult result = handle.Wait();
  if (delivered) {
    EXPECT_TRUE(result.aborted);
  } else {
    // Lost the race to clean completion: full result, not flagged.
    EXPECT_FALSE(result.aborted);
  }
  // A second Cancel after completion is always a no-op.
  EXPECT_FALSE(pool.Cancel(handle));
}

TEST(WorkerPoolTest, AdmissionLimitRejectsSubmitImmediately) {
  const Graph g = RelabelByDegree(BarabasiAlbert(20000, 8, /*seed=*/31));
  const GraphStats stats = ComputeGraphStats(g);
  Pattern p6;
  ASSERT_TRUE(FindPattern("P6", &p6).ok());
  const ExecutionPlan plan = BuildPlan(p6, g, stats, PlanOptions::Light());
  WorkerPool pool(1);
  pool.SetMaxOpenQueries(1);
  WorkerPool::QuerySpec spec;
  spec.graph = GraphView(g);
  spec.plan = &plan;
  WorkerPool::QueryHandle running = pool.Submit(spec);
  // Second submit while the first occupies the only slot: rejected
  // without queueing — the handle is already done and flagged.
  WorkerPool::QueryHandle rejected = pool.Submit(spec);
  EXPECT_TRUE(rejected.done());
  const ParallelResult reject_result = rejected.Wait();
  EXPECT_TRUE(reject_result.rejected);
  EXPECT_EQ(reject_result.num_matches, 0u);
  pool.Cancel(running);
  const ParallelResult first = running.Wait();
  EXPECT_FALSE(first.rejected);
  // Slot free again: the next submit is admitted.
  WorkerPool::QueryHandle admitted = pool.Submit(spec);
  pool.Cancel(admitted);
  EXPECT_FALSE(admitted.Wait().rejected);
}

TEST(WorkerPoolTest, OnDoneCallbackFiresExactlyOnce) {
  const Graph g = RelabelByDegree(ErdosRenyi(300, 900, /*seed=*/7));
  const GraphStats stats = ComputeGraphStats(g);
  Pattern tri;
  ASSERT_TRUE(FindPattern("triangle", &tri).ok());
  const ExecutionPlan plan = BuildPlan(tri, g, stats, PlanOptions::Light());
  WorkerPool pool(2);
  WorkerPool::QuerySpec spec;
  spec.graph = GraphView(g);
  spec.plan = &plan;
  std::atomic<int> fired{0};
  std::atomic<uint64_t> async_matches{0};
  spec.on_done = [&](const ParallelResult& r) {
    fired.fetch_add(1);
    async_matches.store(r.num_matches);
  };
  WorkerPool::QueryHandle handle = pool.Submit(spec);
  const ParallelResult result = handle.Wait();
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(async_matches.load(), result.num_matches);
  EXPECT_GT(result.num_matches, 0u);
}

class ParallelCountTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelCountTest, MatchesSerialCount) {
  const int threads = GetParam();
  const Graph g = RelabelByDegree(BarabasiAlbert(3000, 5, /*seed=*/13));
  const GraphStats stats = ComputeGraphStats(g);
  for (const char* name : {"P1", "P2", "P3", "P5"}) {
    Pattern p;
    ASSERT_TRUE(FindPattern(name, &p).ok());
    const ExecutionPlan plan = BuildPlan(p, g, stats, PlanOptions::Light());
    Enumerator serial(g, plan);
    const uint64_t expected = serial.Count();

    ParallelOptions options;
    options.num_threads = threads;
    const ParallelResult result = ParallelCount(g, plan, options);
    EXPECT_EQ(result.num_matches, expected)
        << name << " threads=" << threads;
    EXPECT_FALSE(result.timed_out);
    // threads_used reports workers observed doing work, which can fall
    // short of the configured count on small graphs.
    EXPECT_EQ(result.threads_configured, threads);
    EXPECT_GE(result.threads_used, 1);
    EXPECT_LE(result.threads_used, threads);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelCountTest,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(ParallelCountTest, StatsMergeAcrossWorkers) {
  const Graph g = RelabelByDegree(BarabasiAlbert(2000, 5, /*seed=*/19));
  Pattern p2;
  ASSERT_TRUE(FindPattern("P2", &p2).ok());
  const ExecutionPlan plan =
      BuildPlan(p2, g, ComputeGraphStats(g), PlanOptions::Light());
  Enumerator serial(g, plan);
  serial.Count();

  ParallelOptions options;
  options.num_threads = 4;
  const ParallelResult result = ParallelCount(g, plan, options);
  // Work-stealing partitions the root range, so aggregated counters must
  // equal the serial ones exactly.
  EXPECT_EQ(result.stats.intersections.num_intersections,
            serial.stats().intersections.num_intersections);
  EXPECT_EQ(result.stats.num_partial_results,
            serial.stats().num_partial_results);
  // Table V metric: 4 workers' candidate buffers.
  EXPECT_EQ(result.stats.candidate_memory_bytes,
            4 * serial.stats().candidate_memory_bytes);
}

TEST(ParallelCountTest, WorkerStatsAccountForAllRoots) {
  const Graph g = RelabelByDegree(BarabasiAlbert(3000, 5, /*seed=*/29));
  Pattern p2;
  ASSERT_TRUE(FindPattern("P2", &p2).ok());
  const ExecutionPlan plan =
      BuildPlan(p2, g, ComputeGraphStats(g), PlanOptions::Light());
  ParallelOptions options;
  options.num_threads = 4;
  const ParallelResult result = ParallelCount(g, plan, options);

  ASSERT_EQ(result.workers.size(), 4u);
  uint64_t roots = 0;
  uint64_t matches = 0;
  uint64_t donated = 0;
  uint64_t received = 0;
  for (const obs::WorkerStats& w : result.workers) {
    roots += w.roots_processed;
    matches += w.matches;
    donated += w.steals_initiated;
    received += w.steals_received;
  }
  // Every root is processed by exactly one worker, and per-worker match
  // counts partition the total.
  EXPECT_EQ(roots, g.NumVertices());
  EXPECT_EQ(matches, result.num_matches);
  // Donated ranges are all eventually popped by someone.
  EXPECT_EQ(donated, received);
  EXPECT_GE(result.load_imbalance, 1.0);
  EXPECT_EQ(result.threads_configured, 4);
}

TEST(ParallelCountTest, TimeLimitAborts) {
  const Graph g = RelabelByDegree(BarabasiAlbert(20000, 10, /*seed=*/23));
  Pattern p5;
  ASSERT_TRUE(FindPattern("P5", &p5).ok());
  const ExecutionPlan plan =
      BuildPlan(p5, g, ComputeGraphStats(g), PlanOptions::Se());
  ParallelOptions options;
  options.num_threads = 2;
  options.time_limit_seconds = 1e-3;
  const ParallelResult result = ParallelCount(g, plan, options);
  EXPECT_TRUE(result.timed_out);
}

TEST(ParallelCountTest, DefaultThreadsResolveToHardware) {
  const Graph g = RelabelByDegree(ErdosRenyi(200, 600, /*seed=*/3));
  Pattern tri;
  ASSERT_TRUE(FindPattern("triangle", &tri).ok());
  const ExecutionPlan plan =
      BuildPlan(tri, g, ComputeGraphStats(g), PlanOptions::Light());
  const ParallelResult result = ParallelCount(g, plan, {});
  EXPECT_GE(result.threads_used, 1);
}

TEST(ParallelOptionsTest, ValidateFlagsEveryBadField) {
  EXPECT_TRUE(ParallelOptions{}.Validate().ok());

  ParallelOptions opts;
  opts.donation_check_interval = 0;
  EXPECT_FALSE(opts.Validate().ok());

  opts = ParallelOptions{};
  opts.min_split_size = 0;
  EXPECT_FALSE(opts.Validate().ok());

  opts = ParallelOptions{};
  opts.initial_chunks_per_worker = 0;
  EXPECT_FALSE(opts.Validate().ok());

  opts = ParallelOptions{};
  opts.time_limit_seconds = -1.0;
  EXPECT_FALSE(opts.Validate().ok());

  opts = ParallelOptions{};
  opts.time_limit_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(opts.Validate().ok());
}

TEST(ParallelOptionsTest, NormalizedClampsIntoValidDomain) {
  ParallelOptions opts;
  opts.num_threads = -4;
  opts.donation_check_interval = 0;
  opts.min_split_size = 0;
  opts.initial_chunks_per_worker = -7;
  opts.time_limit_seconds = std::numeric_limits<double>::quiet_NaN();
  const ParallelOptions norm = opts.Normalized();
  EXPECT_GE(norm.num_threads, 1);
  EXPECT_EQ(norm.donation_check_interval, 1u);
  EXPECT_EQ(norm.min_split_size, 1u);
  EXPECT_EQ(norm.initial_chunks_per_worker, 1);
  EXPECT_TRUE(std::isinf(norm.time_limit_seconds));
  EXPECT_TRUE(norm.Validate().ok());
  // An already-valid config is a fixed point.
  const ParallelOptions valid = ParallelOptions{}.Normalized();
  EXPECT_EQ(valid.Normalized().num_threads, valid.num_threads);
}

TEST(ParallelCountTest, ZeroDonationIntervalRegression) {
  // donation_check_interval == 0 used to reach `++ticks % 0` in the worker
  // loop — modulo by zero, UB (SIGFPE on x86). Normalized() now clamps it,
  // along with the other out-of-domain fields sampled here.
  const Graph g = RelabelByDegree(BarabasiAlbert(500, 4, /*seed=*/31));
  Pattern tri;
  ASSERT_TRUE(FindPattern("triangle", &tri).ok());
  const ExecutionPlan plan =
      BuildPlan(tri, g, ComputeGraphStats(g), PlanOptions::Light());
  Enumerator serial(g, plan);
  const uint64_t expected = serial.Count();

  ParallelOptions options;
  options.num_threads = 3;
  options.donation_check_interval = 0;
  options.min_split_size = 0;
  options.initial_chunks_per_worker = -2;
  const ParallelResult result = ParallelCount(g, plan, options);
  EXPECT_EQ(result.num_matches, expected);
  EXPECT_FALSE(result.timed_out);
}

}  // namespace
}  // namespace light
