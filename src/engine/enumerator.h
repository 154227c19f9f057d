#ifndef LIGHT_ENGINE_ENUMERATOR_H_
#define LIGHT_ENGINE_ENUMERATOR_H_

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "common/types.h"
#include "engine/scratch_arena.h"
#include "engine/visitors.h"
#include "graph/bitmap_index.h"
#include "graph/graph_view.h"
#include "intersect/bitmap.h"
#include "intersect/set_intersection.h"
#include "obs/metrics.h"
#include "plan/plan.h"

namespace light {

/// Per-run counters. comp_counts[u] observes |Phi_u| — the number of
/// candidate-set computations of u — which Propositions III.1 and IV.2
/// characterize (and our tests verify). candidate_memory_bytes is the
/// Table V metric.
struct EngineStats {
  uint64_t num_matches = 0;
  uint64_t num_partial_results = 0;  // successful MAT extensions
  IntersectStats intersections;
  std::vector<uint64_t> comp_counts;  // indexed by pattern vertex
  std::vector<uint64_t> mat_counts;   // indexed by pattern vertex
  size_t candidate_memory_bytes = 0;
  double elapsed_seconds = 0.0;
  bool timed_out = false;

  void Add(const EngineStats& other);
};

/// Executes an ExecutionPlan against a data graph with the recursive DFS of
/// Algorithms 1/2 (which of the two depends on how the plan was built). One
/// Enumerator holds one partial result plus one candidate buffer per pattern
/// vertex — the O(n * d_max) footprint of Section VII-B — so the parallel
/// runtime instantiates one per worker.
///
/// The data graph arrives as a GraphView, so one engine serves every
/// GraphStore mode: heap and mmap both hand it a resident CSR, K1 operands
/// alias Neighbors() spans, and the induced check binary searches the
/// resident adjacency. Counts are bit-identical across modes — the fuzz
/// store oracle holds the engine to that.
class Enumerator {
 public:
  /// The view's backing store and plan must outlive the enumerator. The
  /// graph's vertex IDs should be degree-ordered (graph/reorder.h) when the
  /// plan enforces symmetry breaking.
  ///
  /// `data_labels` (optional, size N, must outlive the enumerator) enables
  /// labeled subgraph matching: a pattern vertex with a non-zero label only
  /// binds to data vertices carrying the same label (label 0 on a pattern
  /// vertex is the wildcard). Without labels the engine is the paper's
  /// unlabeled enumerator.
  ///
  /// `arena` (optional, must outlive the enumerator) recycles candidate and
  /// scratch buffers across enumerator lifetimes: the constructor borrows
  /// its heap buffers from the arena and the destructor returns them. Used
  /// by the persistent worker pool so back-to-back queries reuse the same
  /// backing memory. The arena is single-threaded: construct and destroy
  /// the enumerator on the arena's owning thread.
  Enumerator(GraphView graph, const ExecutionPlan& plan,
             const std::vector<uint32_t>* data_labels = nullptr,
             ScratchArena* arena = nullptr);
  ~Enumerator();

  Enumerator(const Enumerator&) = delete;
  Enumerator& operator=(const Enumerator&) = delete;

  /// Counts all matches. Resets stats first.
  uint64_t Count();

  /// Enumerates all matches through the visitor. Resets stats first.
  uint64_t Enumerate(MatchVisitor* visitor);

  /// Processes a single root binding pi[1] -> v. Does not reset stats;
  /// the parallel runtime drives this from its task loop. When the global
  /// metrics registry is armed (obs::SetMetricsEnabled), batched
  /// "engine.roots_done"/"engine.matches_found" counters are published;
  /// when the global tracer is armed, sampled roots get "root" spans with
  /// nested COMP/MAT spans. Both cost two relaxed loads when disarmed.
  void RunRoot(VertexID v);

  /// Processes roots in [begin, end). Does not reset stats.
  void RunRootRange(VertexID begin, VertexID end);

  /// Sets the visitor for subsequent RunRoot calls (null = counting only).
  void SetVisitor(MatchVisitor* visitor);

  /// Attaches a per-graph bitmap index (graph/bitmap_index.h): candidate
  /// computation then routes intersections over indexed neighborhoods to the
  /// bitmap kernels per the cost model. Null or empty detaches — the engine
  /// falls back to the pure sorted-array path with identical results. The
  /// index must have been built for `graph` (any view of the same snapshot)
  /// and must outlive the enumerator; it is read-only and safe to share
  /// across workers.
  void SetBitmapIndex(const BitmapIndex* index);

  /// Wall-clock budget; when exceeded the run unwinds and stats().timed_out
  /// is set. Models the paper's OOT handling.
  void SetTimeLimit(double seconds) { time_limit_seconds_ = seconds; }

  /// Restarts the time-limit clock; RunRoot does not restart it so the
  /// parallel runtime can impose a global budget.
  void RestartClock() { timer_.Restart(); }

  bool Stopped() const { return stop_; }

  const EngineStats& stats() const { return stats_; }
  EngineStats* mutable_stats() { return &stats_; }
  void ResetStats();

  /// Publishes any batched observability counters to the registry. Called
  /// automatically at the end of Count/Enumerate/RunRootRange; the parallel
  /// runtime calls it after each drained root range so progress readers see
  /// fresh values.
  void FlushObsCounters();

  const ExecutionPlan& plan() const { return plan_; }

 private:
  void RunRootImpl(VertexID v);
  void Run(size_t op_index);
  void RunCompute(size_t op_index);
  void RunMaterialize(size_t op_index);
  /// Terminal for counted-tail (IEP term) plans: with the whole kernel
  /// bound, multiplies each tail vertex's candidate-set size (minus bound
  /// kernel vertices inside it) into num_matches instead of recursing.
  void RunCountedTail();
  /// Terminal for count-only runs of a plan with a twin closure
  /// (ExecutionPlan::twin_closure), entered at MAT(t1), or at COMP(t1) when
  /// a leaf's COMPs end sigma and t2..tk alias C(t1): adds the twins'
  /// extensions by binomials of |S|, and b's (if any) by one scatter pass
  /// over the neighbour lists of S, instead of recursing.
  void RunTwinClosure();
  /// The closing vertex's scatter over S = [begin, end) minus the bound
  /// vertices (twin closure with b): sets *m = |S| and returns the number
  /// of matches that b closes.
  uint64_t ScatterTwins(const VertexID* begin, const VertexID* end,
                        uint64_t* m);
  /// Intersection core shared by RunCompute and RunCountedTail: fills
  /// cand_data_/cand_size_ for non-universal vertex u, returns the size.
  /// Operands are first cut to u's COMP window (ExecutionPlan::comp_windows);
  /// an empty window or operand skips the intersection.
  uint32_t ComputeCandidateSet(int u);
  /// Counts C(u) inside u's MAT window, minus the bound vertices there,
  /// without storing it: the last pairwise step runs a count-only kernel.
  /// Nothing may bind between COMP(u) and MAT(u). Serves a counted leaf
  /// whose COMP directly precedes its MAT and a twin leaf entered at
  /// COMP(t1).
  uint64_t CountLeafCandidates(int u);
  /// |[begin, end)| minus u's bound non-neighbours inside it: the sorted
  /// range is C(u) cut to u's window [lo, hi).
  uint64_t CountUnbound(int u, const VertexID* begin, const VertexID* end,
                        VertexID lo, VertexID hi) const;
  /// Adds a counted leaf's `count` extensions of u to the stats (the same
  /// increments the per-candidate loop makes).
  void AddLeafMatches(int u, uint64_t count);
  /// ID window [lo, hi) allowed by the bounds `lower`/`upper` under the
  /// current mapping.
  std::pair<VertexID, VertexID> Window(const std::vector<int>& lower,
                                       const std::vector<int>& upper) const;
  /// Fills `sets` with u's operands cut to [lo, hi) (bitmap rows stay
  /// whole); returns their number, or 0 when one of them is empty there.
  size_t GatherOperands(int u, VertexID lo, VertexID hi, SetView* sets) const;
  void EmitMatch();
  bool CheckDeadline();

  /// Post-intersection label filter for pattern vertex u; returns the new
  /// size after compacting `data[0, size)` in place is not possible for
  /// aliased spans, so filtering writes into the vertex's own buffer.
  uint32_t FilterByLabel(int u, const VertexID* data, uint32_t size);
  bool LabelMatches(int u, VertexID v) const {
    const uint32_t want = plan_.pattern.Label(u);
    return want == 0 || data_labels_ == nullptr ||
           (*data_labels_)[v] == want;
  }

  const GraphView graph_;
  const ExecutionPlan& plan_;
  const std::vector<uint32_t>* data_labels_;
  ScratchArena* arena_ = nullptr;
  const BitmapIndex* bitmap_index_ = nullptr;
  std::vector<uint64_t> word_scratch_;  // BitmapWords(|V|) when index attached
  IntersectKernel kernel_;
  size_t num_ops_ = 0;
  /// Index in sigma at which Run hands the rest of the plan to a closing
  /// count: the first counted-tail COMP, or COMP(t1)/MAT(t1) of a twin
  /// closure in count-only runs; num_ops_ when neither applies.
  size_t tail_begin_op_ = 0;
  /// tail_begin_op_ of count-only runs (SetVisitor switches between them).
  size_t count_tail_op_ = 0;
  /// ExecutionPlan::TwinClosureB(), cached.
  int twin_b_ = -1;
  /// The plan ends COMP(u), MAT(u) for a u whose leaf can be counted (no
  /// induced checks, real operands): counting runs fuse the two ops.
  bool fused_leaf_ = false;
  /// Per pattern vertex u: the vertices bound before u binds (or before a
  /// counted-tail COMP(u)) that are not u's pattern neighbours. Only their
  /// data vertices can lie in C(u): C(u) is inside N(phi(x)) for every
  /// bound neighbour x, and the CSR has no self-loops. So injectivity
  /// checks compare against these alone.
  std::vector<std::vector<int>> distinct_;

  // Per pattern vertex.
  std::vector<VertexID> mapping_;
  std::vector<std::vector<VertexID>> cand_buffer_;
  std::vector<const VertexID*> cand_data_;
  std::vector<uint32_t> cand_size_;
  std::vector<bool> universal_;  // COMP with no operands: candidates = V(G)

  std::vector<VertexID> scratch_;
  /// Twin-closure scatter state (count-only closure plans only): a zeroed
  /// per-data-vertex counter array and the vertices whose counter is set.
  std::vector<uint32_t> wedge_counts_;
  std::vector<VertexID> wedge_touched_;

  MatchVisitor* visitor_ = nullptr;
  EngineStats stats_;

  // Observability (src/obs). Registry pointers are resolved once in the
  // constructor; per-root increments accumulate locally and flush every 64
  // roots so the armed path stays as cheap as the disarmed one.
  obs::Counter* obs_roots_counter_ = nullptr;
  obs::Counter* obs_matches_counter_ = nullptr;
  obs::Histogram* obs_root_ns_hist_ = nullptr;
  uint64_t obs_pending_roots_ = 0;
  uint64_t obs_pending_matches_ = 0;
  bool trace_root_ = false;  // current root is trace-sampled

  Timer timer_;
  double time_limit_seconds_ = std::numeric_limits<double>::infinity();
  uint32_t deadline_ticks_ = 0;
  bool stop_ = false;
};

}  // namespace light

#endif  // LIGHT_ENGINE_ENUMERATOR_H_
