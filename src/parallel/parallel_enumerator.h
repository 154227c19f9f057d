#ifndef LIGHT_PARALLEL_PARALLEL_ENUMERATOR_H_
#define LIGHT_PARALLEL_PARALLEL_ENUMERATOR_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"
#include "engine/enumerator.h"
#include "graph/graph_view.h"
#include "obs/query_stats.h"
#include "obs/report.h"
#include "plan/plan.h"

namespace light {

/// Configuration of the SMT parallelization (Section VII-B).
struct ParallelOptions {
  /// Number of workers; 0 picks the hardware concurrency. The paper runs up
  /// to 64 threads on 20 physical cores (Figure 7).
  int num_threads = 0;
  /// Wall-clock budget; exceeding it aborts the run (OOT).
  double time_limit_seconds = std::numeric_limits<double>::infinity();
  /// Ranges at or below this size are not split further when donating.
  VertexID min_split_size = 8;
  /// A busy worker checks for starving peers every this many roots.
  uint32_t donation_check_interval = 16;
  /// Number of initial chunks per worker seeded into the queue before
  /// donation takes over (bootstrap only; balancing is donation-driven).
  int initial_chunks_per_worker = 4;

  /// Rejects configurations outside the documented domain: NaN or negative
  /// time limits, a zero donation interval (the donation tick is a modulus),
  /// a zero split size, or non-positive chunk counts. Callers that surface
  /// user input (CLI, fuzz harness, services) should Validate and report;
  /// Normalized() silently clamps the same fields for callers that just want
  /// a safe run.
  Status Validate() const;

  /// Returns a copy with every field forced into its valid domain:
  /// num_threads <= 0 resolves to the hardware concurrency,
  /// donation_check_interval == 0 and min_split_size == 0 clamp to 1,
  /// initial_chunks_per_worker <= 0 clamps to 1, and NaN/negative time
  /// limits become unlimited. ParallelCount applies this internally, so a
  /// fuzz-found bad config degrades to a defined run instead of UB.
  ParallelOptions Normalized() const;
};

struct ParallelResult {
  uint64_t num_matches = 0;
  EngineStats stats;  // merged across workers
  double elapsed_seconds = 0.0;
  bool timed_out = false;
  /// The query was killed via MultiQueryQueue::Abort (deadline timer,
  /// explicit cancel, or a worker tripping the time limit). Counts are
  /// partial. Always false for plain ParallelCount runs that finish.
  bool aborted = false;
  /// The pool's admission limit rejected the query at Submit; no work ran
  /// and every other field is zero. Always false for plain ParallelCount.
  bool rejected = false;
  /// Workers that actually processed at least one root (<= configured; an
  /// oversubscribed run on a tiny graph may leave workers starved).
  int threads_used = 0;
  int threads_configured = 0;
  /// max/mean roots per configured worker; 1.0 = perfectly balanced
  /// (Kimmig et al.'s load-imbalance metric).
  double load_imbalance = 0.0;
  /// Per-worker breakdown: roots, steals initiated/received, idle time.
  std::vector<obs::WorkerStats> workers;
  /// Lifecycle timings filled by the pool at finalize (queue wait, execute,
  /// worker attribution). plan_ns/plan_cache_hit stay zero here; the
  /// session layers them on before surfacing the record on its tickets.
  obs::QueryStats lifecycle;
};

/// Counts all matches of the plan using `options.num_threads` workers, each
/// running the DFS engine on root ranges drawn from a global concurrent
/// queue with sender-initiated work stealing. Workers each hold one partial
/// result and one candidate buffer per pattern vertex, so the total
/// footprint is O(k * n * d_max) as stated in Section VII-B.
/// `data_labels` enables labeled matching exactly as in Enumerator's
/// constructor (optional; must outlive the call). `bitmap_index` (optional;
/// must outlive the call) is shared read-only across workers, each of which
/// attaches it with its own word scratch (Enumerator::SetBitmapIndex).
/// Takes any GraphView (heap or mmap store) — `const Graph&` call sites
/// convert implicitly.
ParallelResult ParallelCount(GraphView graph, const ExecutionPlan& plan,
                             const ParallelOptions& options = {},
                             const std::vector<uint32_t>* data_labels =
                                 nullptr,
                             const BitmapIndex* bitmap_index = nullptr);

}  // namespace light

#endif  // LIGHT_PARALLEL_PARALLEL_ENUMERATOR_H_
