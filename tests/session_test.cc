#include "light.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/scratch_arena.h"
#include "gen/generators.h"
#include "obs/report.h"
#include "parallel/task_queue.h"

namespace light {
namespace {

Graph TestGraph() {
  return RelabelByDegree(BarabasiAlbertClustered(800, 4, 0.4, /*seed=*/77));
}

Pattern Named(const char* name) {
  Pattern p;
  EXPECT_TRUE(FindPattern(name, &p).ok());
  return p;
}

TEST(SessionTest, SingleQueryParityWithRun) {
  const Graph g = TestGraph();
  const Pattern triangle = Named("triangle");
  const Pattern square = Named("square");

  RunOptions serial;
  serial.threads = 1;
  const uint64_t tri_expected = light::Run(g, triangle, serial).num_matches;
  const uint64_t sq_expected = light::Run(g, square, serial).num_matches;

  Session session(g, {});
  EXPECT_EQ(session.Submit(triangle).Wait().num_matches, tri_expected);
  EXPECT_EQ(session.Submit(square).Wait().num_matches, sq_expected);
  // Inline serial path agrees too.
  EXPECT_EQ(session.RunSync(triangle, serial).num_matches, tri_expected);
}

TEST(SessionTest, RunBatchPreservesInputOrder) {
  const Graph g = TestGraph();
  const std::vector<Pattern> patterns = {Named("triangle"), Named("square"),
                                         Named("P3"), Named("triangle")};
  RunOptions serial;
  serial.threads = 1;
  std::vector<uint64_t> expected;
  for (const Pattern& p : patterns) {
    expected.push_back(light::Run(g, p, serial).num_matches);
  }

  Session session(g, {});
  const std::vector<RunResult> results = session.RunBatch(patterns);
  ASSERT_EQ(results.size(), patterns.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok()) << results[i].error;
    EXPECT_EQ(results[i].num_matches, expected[i]) << "pattern " << i;
  }

  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.queries_submitted, patterns.size());
  EXPECT_EQ(stats.queries_completed, patterns.size());
  // Pattern 3 repeats pattern 0, so at least one cache hit.
  EXPECT_GE(stats.plan_cache_hits, 1u);
}

TEST(SessionTest, IsomorphicPatternsShareOnePlan) {
  const Graph g = TestGraph();
  // Two numberings of P3 (a path on three vertices): center 1 vs center 2.
  Pattern path_a(3);
  path_a.AddEdge(0, 1);
  path_a.AddEdge(1, 2);
  Pattern path_b(3);
  path_b.AddEdge(0, 2);
  path_b.AddEdge(2, 1);

  Session session(g, {});
  const RunResult a = session.Submit(path_a).Wait();
  const RunResult b = session.Submit(path_b).Wait();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Counting is isomorphism-invariant, so one canonical plan serves both.
  EXPECT_EQ(a.num_matches, b.num_matches);

  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.plan_cache_size, 1u);
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  EXPECT_EQ(stats.plan_cache_hits, 1u);
}

TEST(SessionTest, ConcurrentSubmitFromManyCallerThreads) {
  const Graph g = TestGraph();
  const Pattern triangle = Named("triangle");
  RunOptions serial;
  serial.threads = 1;
  const uint64_t expected = light::Run(g, triangle, serial).num_matches;

  SessionOptions options;
  options.threads = 4;
  Session session(g, options);

  constexpr int kCallers = 8;
  constexpr int kPerCaller = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      for (int i = 0; i < kPerCaller; ++i) {
        Session::Ticket ticket = session.Submit(triangle);
        const RunResult r = ticket.Wait();
        if (!r.ok() || r.num_matches != expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.queries_submitted,
            static_cast<uint64_t>(kCallers * kPerCaller));
  EXPECT_EQ(stats.queries_completed,
            static_cast<uint64_t>(kCallers * kPerCaller));
  // The insert race resolves to exactly one cached plan.
  EXPECT_EQ(stats.plan_cache_size, 1u);
  EXPECT_EQ(stats.plan_cache_misses + stats.plan_cache_hits,
            static_cast<uint64_t>(kCallers * kPerCaller));
}

TEST(SessionTest, TicketWaitIsIdempotent) {
  const Graph g = TestGraph();
  Session session(g, {});
  Session::Ticket ticket = session.Submit(Named("triangle"));
  ASSERT_TRUE(ticket.valid());
  const RunResult first = ticket.Wait();
  const RunResult second = ticket.Wait();
  EXPECT_EQ(first.num_matches, second.num_matches);
  EXPECT_EQ(first.error, second.error);
  // Repeated waits do not double-count deliveries.
  EXPECT_EQ(session.stats().queries_completed, 1u);

  Session::Ticket defaulted;
  EXPECT_FALSE(defaulted.valid());
}

TEST(SessionTest, SubmitRejectsVisitorButRunSyncStreams) {
  const Graph g = TestGraph();
  const Pattern triangle = Named("triangle");
  Session session(g, {});

  CollectingVisitor rejected;
  RunOptions with_visitor;
  with_visitor.visitor = &rejected;
  const RunResult r = session.Submit(triangle, with_visitor).Wait();
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("visitor"), std::string::npos);
  EXPECT_TRUE(rejected.matches().empty());

  CollectingVisitor streamed;
  RunOptions sync_options;
  sync_options.visitor = &streamed;
  const RunResult s = session.RunSync(triangle, sync_options);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.num_matches, streamed.matches().size());
  EXPECT_GT(s.num_matches, 0u);
}

TEST(SessionTest, TimeLimitAbortsSessionQuery) {
  const Graph g = RelabelByDegree(BarabasiAlbert(20000, 8, /*seed=*/5));
  Session session(g, {});
  RunOptions options;
  options.time_limit_seconds = 1e-3;
  const RunResult r = session.Submit(Named("P5"), options).Wait();
  // Pool-path deadlines are structured errors now: timed_out plus a
  // machine-readable deadline_exceeded prefix (partial count retained).
  EXPECT_TRUE(r.timed_out);
  EXPECT_EQ(r.outcome, QueryOutcome::kDeadlineExceeded);
  EXPECT_EQ(r.error.rfind(kDeadlineExceededPrefix, 0), 0u) << r.error;
  EXPECT_EQ(session.stats().deadline_exceeded, 1u);
}

TEST(SessionTest, DeadlineCoversQueueWait) {
  // One worker + a long-running head query: the victim spends its whole
  // budget waiting in the queue, so its deadline must fire even though it
  // never executed a range.
  const Graph g = RelabelByDegree(BarabasiAlbert(20000, 8, /*seed=*/5));
  SessionOptions so;
  so.threads = 1;
  Session session(g, so);
  Session::Ticket head = session.Submit(Named("P6"));
  RunOptions options;
  options.time_limit_seconds = 1e-3;
  Session::Ticket victim = session.Submit(Named("P5"), options);
  const RunResult r = victim.Wait();
  EXPECT_EQ(r.outcome, QueryOutcome::kDeadlineExceeded);
  EXPECT_EQ(r.error.rfind(kDeadlineExceededPrefix, 0), 0u) << r.error;
  session.Cancel(head.query_id());
  head.Wait();
}

TEST(SessionTest, SerialInlinePathKeepsClassicOot) {
  // RunSync with threads == 1 is the one-shot Run contract: timed_out set,
  // no error, outcome stays kOk.
  const Graph g = RelabelByDegree(BarabasiAlbert(20000, 8, /*seed=*/5));
  Session session(g, {});
  RunOptions options;
  options.threads = 1;
  options.time_limit_seconds = 1e-4;
  const RunResult r = session.RunSync(Named("P6"), options);
  EXPECT_TRUE(r.timed_out);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.outcome, QueryOutcome::kOk);
}

TEST(SessionTest, AdmissionLimitRejectsWithStructuredError) {
  const Graph g = RelabelByDegree(BarabasiAlbert(20000, 8, /*seed=*/5));
  SessionOptions so;
  so.threads = 1;
  so.max_pending_queries = 1;
  Session session(g, so);
  Session::Ticket head = session.Submit(Named("P6"));
  // The only slot is taken: this submit is rejected at admission, before
  // any plan work or queueing.
  const RunResult rejected = session.Submit(Named("triangle")).Wait();
  EXPECT_EQ(rejected.outcome, QueryOutcome::kOverloadRejected);
  EXPECT_EQ(rejected.error.rfind(kOverloadRejectedPrefix, 0), 0u)
      << rejected.error;
  EXPECT_EQ(rejected.num_matches, 0u);
  EXPECT_EQ(session.stats().overload_rejected, 1u);
  session.Cancel(head.query_id());
  head.Wait();
  // Slot freed: the next query is admitted and completes normally.
  const RunResult ok = session.Submit(Named("triangle")).Wait();
  EXPECT_TRUE(ok.ok()) << ok.error;
}

TEST(SessionTest, CancelDeliversCancelledOutcome) {
  const Graph g = RelabelByDegree(BarabasiAlbert(20000, 8, /*seed=*/5));
  SessionOptions so;
  so.threads = 1;
  Session session(g, so);
  Session::Ticket t = session.Submit(Named("P6"));
  const bool delivered = session.Cancel(t.query_id());
  const RunResult r = t.Wait();
  if (delivered) {
    EXPECT_EQ(r.outcome, QueryOutcome::kCancelled);
    EXPECT_EQ(r.error.rfind(kCancelledPrefix, 0), 0u) << r.error;
    EXPECT_EQ(session.stats().cancelled, 1u);
  } else {
    // Lost the race to clean completion: full result, no error.
    EXPECT_TRUE(r.ok()) << r.error;
  }
  // Unknown / already-finished ids are a no-op false.
  EXPECT_FALSE(session.Cancel(t.query_id()));
  EXPECT_FALSE(session.Cancel(0));
}

TEST(SessionTest, SubmitAsyncDeliversCallbackResult) {
  const Graph g = TestGraph();
  const Pattern triangle = Named("triangle");
  RunOptions serial;
  serial.threads = 1;
  const uint64_t expected = light::Run(g, triangle, serial).num_matches;

  Session session(g, {});
  std::mutex mutex;
  std::condition_variable cv;
  bool fired = false;
  RunResult async_result;
  const uint64_t qid = session.SubmitAsync(
      triangle, RunOptions{}, [&](const RunResult& r) {
        std::lock_guard<std::mutex> lock(mutex);
        async_result = r;
        fired = true;
        cv.notify_all();
      });
  EXPECT_NE(qid, 0u);
  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30), [&] {
    return fired;
  }));
  EXPECT_TRUE(async_result.ok()) << async_result.error;
  EXPECT_EQ(async_result.num_matches, expected);
  EXPECT_EQ(async_result.query_stats.query_id, qid);
  EXPECT_EQ(session.stats().queries_completed, 1u);
}

TEST(SessionTest, SubmitAsyncReportsValidationErrorInline) {
  const Graph g = TestGraph();
  Session session(g, {});
  RunOptions bad;
  bad.threads = -2;
  std::atomic<int> fired{0};
  RunResult r;
  session.SubmitAsync(Named("triangle"), bad, [&](const RunResult& result) {
    r = result;
    fired.fetch_add(1);
  });
  // Pre-execution failures fire the callback inline from SubmitAsync.
  EXPECT_EQ(fired.load(), 1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.outcome, QueryOutcome::kError);
}

TEST(SessionTest, ReportStampsSessionTool) {
  const Graph g = TestGraph();
  Session session(g, {});

  obs::RunReport report;
  RunOptions options;
  options.report = &report;
  const RunResult r = session.Submit(Named("triangle"), options).Wait();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(report.tool, "light::Session");
  EXPECT_EQ(report.num_matches, r.num_matches);
  EXPECT_FALSE(report.plan_order.empty());

  obs::RunReport serial_report;
  RunOptions serial;
  serial.threads = 1;
  serial.report = &serial_report;
  session.RunSync(Named("triangle"), serial);
  EXPECT_EQ(serial_report.tool, "light::Session");
  EXPECT_EQ(serial_report.summary.threads_used, 1);
}

TEST(SessionTest, DisabledPlanCacheStillCorrect) {
  const Graph g = TestGraph();
  const Pattern triangle = Named("triangle");
  RunOptions serial;
  serial.threads = 1;
  const uint64_t expected = light::Run(g, triangle, serial).num_matches;

  SessionOptions options;
  options.plan_cache_capacity = 0;
  Session session(g, options);
  EXPECT_EQ(session.Submit(triangle).Wait().num_matches, expected);
  EXPECT_EQ(session.Submit(triangle).Wait().num_matches, expected);
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.plan_cache_size, 0u);
  EXPECT_EQ(stats.plan_cache_hits, 0u);
}

TEST(SessionTest, PlanCacheEvictsLeastRecentlyUsed) {
  const Graph g = TestGraph();
  SessionOptions options;
  options.plan_cache_capacity = 1;
  Session session(g, options);
  ASSERT_TRUE(session.Submit(Named("triangle")).Wait().ok());
  ASSERT_TRUE(session.Submit(Named("square")).Wait().ok());
  EXPECT_EQ(session.stats().plan_cache_size, 1u);
  // Triangle was evicted: resubmitting misses again but stays correct.
  ASSERT_TRUE(session.Submit(Named("triangle")).Wait().ok());
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.plan_cache_size, 1u);
  EXPECT_EQ(stats.plan_cache_misses, 3u);
}

TEST(SessionTest, IepQueryIsOneQueryOnEveryPath) {
  // An inclusion-exclusion count runs its K term plans as parts of ONE
  // query, inline and on the pool alike: one submit, one delivery, one
  // query-log record, term plans counted as plan-cache lookups, and
  // deadline counters that agree with the delivered outcome.
  const Graph g = TestGraph();
  const Graph big = RelabelByDegree(BarabasiAlbert(20000, 8, /*seed=*/5));
  const Pattern star = Named("star4");
  const IepDecomposition dec = BuildIepDecomposition(star);
  ASSERT_TRUE(dec.valid());
  const uint64_t terms = dec.terms.size();
  RunOptions enumerate;
  enumerate.threads = 1;
  const uint64_t expected = light::Run(g, star, enumerate).num_matches;

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    SessionOptions so;
    so.threads = 4;
    Session session(g, so);
    RunOptions iep;
    iep.threads = threads;
    iep.plan_options.count_strategy = CountStrategy::kIep;
    const RunResult first = session.RunSync(star, iep);
    ASSERT_TRUE(first.ok()) << first.error;
    EXPECT_EQ(first.num_matches, expected);
    SessionStats stats = session.stats();
    EXPECT_EQ(stats.queries_submitted, 1u);
    EXPECT_EQ(stats.queries_completed, 1u);
    EXPECT_EQ(stats.plan_cache_hits + stats.plan_cache_misses, terms);
    obs::SessionReport report;
    session.FillSessionReport(&report);
    EXPECT_EQ(report.queries.size(), 1u);

    // The same query again: every term plan is a cache hit.
    const uint64_t hits_before = stats.plan_cache_hits;
    EXPECT_EQ(session.RunSync(star, iep).num_matches, expected);
    stats = session.stats();
    EXPECT_EQ(stats.plan_cache_hits, hits_before + terms);
    EXPECT_EQ(stats.queries_submitted, 2u);
    EXPECT_EQ(stats.queries_completed, 2u);

    // A budget far below the run time, anchored at the query's admit.
    Session slow(big, so);
    RunOptions tight = iep;
    tight.time_limit_seconds = 0.02;
    const RunResult r = slow.RunSync(Named("book4"), tight);
    EXPECT_TRUE(r.ok() || r.outcome == QueryOutcome::kDeadlineExceeded)
        << r.error;
    const SessionStats slow_stats = slow.stats();
    EXPECT_EQ(slow_stats.queries_submitted, 1u);
    EXPECT_EQ(slow_stats.queries_completed, 1u);
    EXPECT_EQ(slow_stats.deadline_exceeded,
              r.outcome == QueryOutcome::kDeadlineExceeded ? 1u : 0u);
    slow.FillSessionReport(&report);
    EXPECT_EQ(report.queries.size(), 1u);
  }
}

TEST(SessionTest, TicketEntryPointsHonourCountStrategy) {
  // Submit, SubmitAsync and RunBatch count through inclusion-exclusion
  // when asked, exactly as RunSync does: the enumeration count, with every
  // term plan looked up in the plan cache. An async IEP query runs its K
  // term plans as K pool parts, and only the last part to finish may
  // deliver: the callback fires exactly once, with the full signed sum.
  const Graph g = TestGraph();
  for (const char* name : {"P5", "star4"}) {
    SCOPED_TRACE(name);
    const Pattern pattern = Named(name);
    const IepDecomposition dec = BuildIepDecomposition(pattern);
    ASSERT_TRUE(dec.valid());
    const uint64_t terms = dec.terms.size();
    RunOptions enumerate;
    enumerate.threads = 1;
    const uint64_t expected = light::Run(g, pattern, enumerate).num_matches;
    RunOptions iep;
    iep.plan_options.count_strategy = CountStrategy::kIep;

    std::mutex mutex;
    std::condition_variable cv;
    int fired = 0;
    RunResult async_result;
    {
      SessionOptions so;
      so.threads = 4;
      Session session(g, so);
      const RunResult submitted = session.Submit(pattern, iep).Wait();
      ASSERT_TRUE(submitted.ok()) << submitted.error;
      EXPECT_EQ(submitted.num_matches, expected);
      SessionStats stats = session.stats();
      EXPECT_EQ(stats.plan_cache_hits + stats.plan_cache_misses, terms);

      session.SubmitAsync(pattern, iep, [&](const RunResult& r) {
        std::lock_guard<std::mutex> lock(mutex);
        async_result = r;
        ++fired;
        cv.notify_all();
      });
      {
        std::unique_lock<std::mutex> lock(mutex);
        ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                                [&] { return fired > 0; }));
      }

      const std::vector<RunResult> batch =
          session.RunBatch({pattern, pattern}, iep);
      ASSERT_EQ(batch.size(), 2u);
      for (const RunResult& r : batch) {
        ASSERT_TRUE(r.ok()) << r.error;
        EXPECT_EQ(r.num_matches, expected);
      }
      stats = session.stats();
      EXPECT_EQ(stats.plan_cache_hits + stats.plan_cache_misses, 4 * terms);
      EXPECT_EQ(stats.queries_completed, 4u);
    }
    // The session (and its pool) is gone: no part can deliver again.
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(async_result.ok()) << async_result.error;
    EXPECT_EQ(async_result.num_matches, expected);
  }
}

TEST(SessionObsTest, TicketCarriesQueryLifecycleStats) {
  const Graph g = TestGraph();
  const Pattern triangle = Named("triangle");
  Session session(g, {});

  const RunResult first = session.Submit(triangle).Wait();
  ASSERT_TRUE(first.ok());
  const obs::QueryStats& s1 = first.query_stats;
  EXPECT_GT(s1.query_id, 0u);
  EXPECT_FALSE(s1.plan_cache_hit);  // first submission builds the plan
  EXPECT_GT(s1.plan_ns, 0u);
  EXPECT_GT(s1.execute_ns, 0u);
  EXPECT_GT(s1.ranges_executed, 0u);
  // End-to-end covers the component phases (slack is handoff overhead).
  EXPECT_GE(s1.total_ns, s1.plan_ns + s1.queue_wait_ns + s1.execute_ns);

  const RunResult second = session.Submit(triangle).Wait();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.query_stats.plan_cache_hit);
  EXPECT_GT(second.query_stats.query_id, s1.query_id);

  // The serial inline path synthesizes the same record.
  RunOptions serial;
  serial.threads = 1;
  const RunResult sync = session.RunSync(triangle, serial);
  ASSERT_TRUE(sync.ok());
  EXPECT_GT(sync.query_stats.query_id, 0u);
  EXPECT_EQ(sync.query_stats.queue_wait_ns, 0u);  // never queued
  EXPECT_GT(sync.query_stats.execute_ns, 0u);
  EXPECT_EQ(sync.query_stats.ranges_executed, 1u);

  // Session aggregates: one histogram sample per completed query.
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.latency.count, 3u);
  EXPECT_EQ(stats.queue_wait.count, 3u);
  EXPECT_EQ(stats.execute.count, 3u);
  EXPECT_EQ(stats.plan_resolve.count, 3u);
  EXPECT_GT(stats.latency.p50, 0u);
  EXPECT_GE(stats.latency.max, stats.latency.p50);
}

TEST(SessionObsTest, SlowQueryLogRecordsOverThresholdQueries) {
  const Graph g = TestGraph();
  SessionOptions options;
  options.slow_query_threshold_seconds = 1e-9;  // everything is "slow"
  Session session(g, options);

  ASSERT_TRUE(session.Submit(Named("triangle")).Wait().ok());
  ASSERT_TRUE(session.Submit(Named("square")).Wait().ok());

  const std::vector<obs::SlowQueryRecord> slow = session.slow_queries();
  ASSERT_EQ(slow.size(), 2u);
  for (const obs::SlowQueryRecord& r : slow) {
    EXPECT_EQ(r.kind, "slow");
    EXPECT_GT(r.query_id, 0u);
    EXPECT_FALSE(r.pattern.empty());
    EXPECT_FALSE(r.plan_sigma.empty());
    EXPECT_GT(r.latency_seconds, 0.0);
  }
  EXPECT_EQ(session.stats().slow_queries, 2u);

  // Threshold disabled (the default): nothing is logged.
  Session quiet(g, {});
  ASSERT_TRUE(quiet.Submit(Named("triangle")).Wait().ok());
  EXPECT_TRUE(quiet.slow_queries().empty());
  EXPECT_EQ(quiet.stats().slow_queries, 0u);
}

TEST(SessionObsTest, FindStuckQueriesComparesProgressSnapshots) {
  using Progress = MultiQueryQueue::QueryProgress;
  const auto entry = [](uint64_t id, uint64_t progress, bool active,
                        bool aborted) {
    Progress p;
    p.query_id = id;
    p.progress = progress;
    p.active = active;
    p.aborted = aborted;
    return p;
  };

  const std::vector<Progress> prev = {
      entry(1, 10, true, false),   // advances -> not stuck
      entry(2, 20, true, false),   // static -> stuck
      entry(3, 30, true, false),   // completes (absent later) -> not stuck
      entry(4, 40, true, true),    // aborted -> ignored
      entry(5, 50, false, false),  // never activated -> ignored
  };
  const std::vector<Progress> curr = {
      entry(1, 11, true, false), entry(2, 20, true, false),
      entry(4, 40, true, true),  entry(5, 50, false, false),
      entry(6, 60, true, false),  // new since prev -> no baseline yet
  };

  const std::vector<uint64_t> stuck = FindStuckQueries(prev, curr);
  ASSERT_EQ(stuck.size(), 1u);
  EXPECT_EQ(stuck[0], 2u);

  EXPECT_TRUE(FindStuckQueries({}, curr).empty());
  EXPECT_TRUE(FindStuckQueries(prev, {}).empty());
}

TEST(SessionObsTest, WatchdogIgnoresAbortedQueryWithOutstandingLease) {
  // Regression: a deadline-killed query whose worker still holds a lease
  // legitimately stops advancing — the watchdog must not report it stuck.
  MultiQueryQueue queue;
  MultiQueryQueue::Query* q = queue.Open(nullptr, 0, /*query_id=*/42);
  queue.Push(q, {0, 100});
  EXPECT_FALSE(queue.Activate(q));
  MultiQueryQueue::Lease lease;
  ASSERT_TRUE(queue.Pop(&lease));
  EXPECT_FALSE(queue.Abort(q));  // lease outstanding: not the completing call
  const auto before = queue.SnapshotProgress();
  ASSERT_EQ(before.size(), 1u);
  EXPECT_TRUE(before[0].aborted);
  // No lease movement across the window, exactly the stuck signature —
  // but the abort makes it expected.
  const auto after = queue.SnapshotProgress();
  EXPECT_TRUE(FindStuckQueries(before, after).empty());
  EXPECT_TRUE(queue.Done(lease));
  EXPECT_TRUE(queue.Release(q));
}

TEST(SessionObsTest, FillSessionReportMirrorsSessionState) {
  const Graph g = TestGraph();
  SessionOptions options;
  options.threads = 2;
  Session session(g, options);
  ASSERT_TRUE(session.Submit(Named("triangle")).Wait().ok());
  ASSERT_TRUE(session.Submit(Named("triangle")).Wait().ok());
  ASSERT_TRUE(session.Submit(Named("square")).Wait().ok());

  obs::SessionReport report;
  session.FillSessionReport(&report);
  EXPECT_EQ(report.tool, "light::Session");
  EXPECT_EQ(report.graph_vertices, g.NumVertices());
  EXPECT_EQ(report.graph_edges, g.NumEdges());
  EXPECT_EQ(report.queries_submitted, 3u);
  EXPECT_EQ(report.queries_completed, 3u);
  EXPECT_EQ(report.plan_cache_hits, 1u);
  EXPECT_EQ(report.plan_cache_misses, 2u);
  EXPECT_EQ(report.latency.count, 3u);
  EXPECT_EQ(report.queue_wait.count, 3u);
  EXPECT_EQ(report.execute.count, 3u);
  EXPECT_GT(report.latency.p50, 0u);

  ASSERT_EQ(report.queries.size(), 3u);
  uint64_t cache_hits_seen = 0;
  for (const obs::SessionQueryRecord& q : report.queries) {
    EXPECT_TRUE(q.ok);
    EXPECT_GT(q.num_matches, 0u);
    EXPECT_GT(q.stats.total_ns, 0u);
    EXPECT_GT(q.stats.execute_ns, 0u);
    EXPECT_FALSE(q.pattern.empty());
    cache_hits_seen += q.stats.plan_cache_hit ? 1 : 0;
  }
  EXPECT_EQ(cache_hits_seen, 1u);  // the repeated triangle

  // The report round-trips through its JSON form.
  obs::SessionReport parsed;
  ASSERT_TRUE(obs::SessionReport::FromJson(report.ToJson(), &parsed).ok());
  EXPECT_EQ(parsed.queries.size(), 3u);
  EXPECT_EQ(parsed.latency.count, 3u);
  EXPECT_EQ(parsed.plan_cache_hits, 1u);
}

TEST(ScratchArenaTest, ReusesReleasedBuffers) {
  ScratchArena arena;
  std::vector<VertexID> buf = arena.AcquireVertexBuffer(128);
  EXPECT_EQ(buf.size(), 128u);
  EXPECT_EQ(arena.reuse_hits(), 0u);
  arena.ReleaseVertexBuffer(std::move(buf));
  EXPECT_EQ(arena.pooled_buffers(), 1u);

  std::vector<VertexID> again = arena.AcquireVertexBuffer(64);
  EXPECT_EQ(again.size(), 64u);
  EXPECT_GE(again.capacity(), 128u);  // pooled storage came back
  EXPECT_EQ(arena.reuse_hits(), 1u);
  EXPECT_EQ(arena.pooled_buffers(), 0u);
}

TEST(ScratchArenaTest, WordBuffersComeBackZeroed) {
  ScratchArena arena;
  std::vector<uint64_t> words = arena.AcquireWordBuffer(16);
  for (uint64_t& w : words) w = ~uint64_t{0};
  arena.ReleaseWordBuffer(std::move(words));
  std::vector<uint64_t> again = arena.AcquireWordBuffer(16);
  ASSERT_EQ(again.size(), 16u);
  for (const uint64_t w : again) EXPECT_EQ(w, 0u);
  EXPECT_EQ(arena.reuse_hits(), 1u);
}

}  // namespace
}  // namespace light
