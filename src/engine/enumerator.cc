#include "engine/enumerator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "intersect/multiway.h"
#include "obs/trace.h"

namespace light {
namespace {

/// Span helper for the trace-sampled COMP/MAT ops: a plain bool gate (no
/// atomics) so untraced roots pay one predictable branch per op.
class ScopedOpSpan {
 public:
  ScopedOpSpan(bool active, const char* name, int u)
      : active_(active), name_(name), u_(u) {
    if (active_) start_ns_ = obs::Tracer::Global().NowNs();
  }
  ~ScopedOpSpan() {
    if (active_) {
      obs::Tracer& tracer = obs::Tracer::Global();
      tracer.EmitSpan(name_, start_ns_, tracer.NowNs() - start_ns_, "u", u_);
    }
  }

 private:
  const bool active_;
  const char* name_;
  const int u_;
  uint64_t start_ns_ = 0;
};

/// First element >= key in [begin, end). Branchless: the compare feeds a
/// conditional move, so the window cuts and membership probes on the hot
/// path pay no branch mispredicts.
const VertexID* LowerBound(const VertexID* begin, const VertexID* end,
                           VertexID key) {
  size_t len = static_cast<size_t>(end - begin);
  if (len == 0) return begin;
  while (len > 1) {
    const size_t half = len / 2;
    begin = begin[half] < key ? begin + half : begin;
    len -= half;
  }
  return begin + (*begin < key ? 1 : 0);
}

/// The cuts of a sorted range to an ID window [lo, hi). Both gallop in from
/// their own end (probes 1, 2, 4, ... elements in, then LowerBound), so a
/// cut that drops d elements costs O(log d) and a window that cuts little
/// costs little.
const VertexID* CutFront(const VertexID* begin, const VertexID* end,
                         VertexID lo) {
  const size_t n = static_cast<size_t>(end - begin);
  size_t bound = 1;
  while (bound <= n && begin[bound - 1] < lo) bound <<= 1;
  return LowerBound(begin + bound / 2, begin + std::min(bound - 1, n), lo);
}

const VertexID* CutBack(const VertexID* begin, const VertexID* end,
                        VertexID hi) {
  const size_t n = static_cast<size_t>(end - begin);
  size_t bound = 1;
  while (bound <= n && *(end - bound) >= hi) bound <<= 1;
  return LowerBound(bound <= n ? end - bound + 1 : begin, end - bound / 2, hi);
}

bool Contains(const VertexID* begin, const VertexID* end, VertexID key) {
  const VertexID* it = LowerBound(begin, end, key);
  return it != end && *it == key;
}

/// Binomial coefficient C(n, k); each step's product is C(n, i + 1) * (i + 1),
/// so the division is exact.
uint64_t Choose(uint64_t n, size_t k) {
  if (n < k) return 0;
  uint64_t c = 1;
  for (size_t i = 0; i < k; ++i) c = c * (n - i) / (i + 1);
  return c;
}

}  // namespace

void EngineStats::Add(const EngineStats& other) {
  num_matches += other.num_matches;
  num_partial_results += other.num_partial_results;
  intersections.Add(other.intersections);
  if (comp_counts.size() < other.comp_counts.size()) {
    comp_counts.resize(other.comp_counts.size(), 0);
  }
  for (size_t i = 0; i < other.comp_counts.size(); ++i) {
    comp_counts[i] += other.comp_counts[i];
  }
  if (mat_counts.size() < other.mat_counts.size()) {
    mat_counts.resize(other.mat_counts.size(), 0);
  }
  for (size_t i = 0; i < other.mat_counts.size(); ++i) {
    mat_counts[i] += other.mat_counts[i];
  }
  candidate_memory_bytes += other.candidate_memory_bytes;
  elapsed_seconds = std::max(elapsed_seconds, other.elapsed_seconds);
  timed_out = timed_out || other.timed_out;
}

Enumerator::Enumerator(GraphView graph, const ExecutionPlan& plan,
                       const std::vector<uint32_t>* data_labels,
                       ScratchArena* arena)
    : graph_(graph),
      plan_(plan),
      data_labels_(data_labels),
      arena_(arena),
      kernel_(plan.options.kernel) {
  const int n = plan_.pattern.NumVertices();
  if (data_labels_ != nullptr) {
    LIGHT_CHECK(data_labels_->size() == graph_.NumVertices());
  }
  num_ops_ = plan_.sigma.size();
  LIGHT_CHECK(num_ops_ >= 1);
  LIGHT_CHECK(plan_.sigma[0].type == OpType::kMaterialize);
  LIGHT_CHECK(plan_.sigma[0].vertex == plan_.FirstVertex());
  LIGHT_CHECK(plan_.counted_tail.size() < num_ops_);
  tail_begin_op_ = num_ops_ - plan_.counted_tail.size();
  count_tail_op_ = tail_begin_op_;
  if (!KernelAvailable(kernel_)) kernel_ = IntersectKernel::kHybrid;

  mapping_.assign(static_cast<size_t>(n), kInvalidVertex);
  cand_buffer_.resize(static_cast<size_t>(n));
  cand_data_.assign(static_cast<size_t>(n), nullptr);
  cand_size_.assign(static_cast<size_t>(n), 0);
  universal_.assign(static_cast<size_t>(n), false);
  if (arena_ != nullptr) {
    scratch_ = arena_->AcquireVertexBuffer(graph_.MaxDegree());
  } else {
    scratch_.resize(graph_.MaxDegree());
  }

  size_t cand_bytes = 0;
  for (const Operation& op : plan_.sigma) {
    if (op.type != OpType::kCompute) continue;
    const Operands& ops = plan_.operands[static_cast<size_t>(op.vertex)];
    if (ops.k1.empty() && ops.k2.empty()) {
      // No backward neighbors (disconnected order): candidate set is V(G),
      // kept implicit.
      universal_[static_cast<size_t>(op.vertex)] = true;
      continue;
    }
    // Any intersection result is bounded by its smallest operand; operands
    // are neighbor lists or earlier candidate sets, both at most d_max.
    auto& buffer = cand_buffer_[static_cast<size_t>(op.vertex)];
    if (arena_ != nullptr) {
      buffer = arena_->AcquireVertexBuffer(graph_.MaxDegree());
    } else {
      buffer.resize(graph_.MaxDegree());
    }
    cand_bytes += buffer.size() * sizeof(VertexID);
  }
  stats_.candidate_memory_bytes = cand_bytes;

  distinct_.assign(static_cast<size_t>(n), {});
  uint32_t bound = 0;
  for (size_t i = 0; i < num_ops_; ++i) {
    const Operation& op = plan_.sigma[i];
    if (op.type != OpType::kMaterialize && i < tail_begin_op_) continue;
    for (int x = 0; x < n; ++x) {
      if ((bound >> x & 1u) != 0 && !plan_.pattern.HasEdge(x, op.vertex)) {
        distinct_[static_cast<size_t>(op.vertex)].push_back(x);
      }
    }
    if (op.type == OpType::kMaterialize) bound |= 1u << op.vertex;
  }

  if (num_ops_ >= 2 && !plan_.HasCountedTail()) {
    const Operation& comp = plan_.sigma[num_ops_ - 2];
    const int u = plan_.sigma[num_ops_ - 1].vertex;
    fused_leaf_ = comp.type == OpType::kCompute && comp.vertex == u &&
                  !universal_[static_cast<size_t>(u)] &&
                  plan_.non_adjacent[static_cast<size_t>(u)].empty() &&
                  (data_labels_ == nullptr || plan_.pattern.Label(u) == 0);
  }

  if (plan_.HasTwinClosure()) {
    // Labeled twins or b would need per-vertex label checks: such runs walk
    // sigma instead.
    const bool labeled =
        data_labels_ != nullptr && plan_.TwinClosureLabeled();
    twin_b_ = plan_.TwinClosureB();
    const std::vector<int>& closure = plan_.twin_closure;
    const size_t k = closure.size() - (twin_b_ < 0 ? 0 : 1);
    if (!labeled && twin_b_ >= 0) {
      // sigma ends MAT(t1) ... MAT(tk) COMP(b) MAT(b).
      count_tail_op_ = num_ops_ - k - 2;
      const size_t num_vertices = graph_.NumVertices();
      if (arena_ != nullptr) {
        wedge_counts_ = arena_->AcquireVertexBuffer(num_vertices);
        wedge_touched_ = arena_->AcquireVertexBuffer(0);
      }
      wedge_counts_.assign(num_vertices, 0);
    } else if (!labeled) {
      // sigma ends MAT(t1) ... MAT(tk). If before those it ends COMP(t1),
      // then COMPs of t2..tk that alias C(t1) uncut, the leaf is entered at
      // COMP(t1): C(t1) is counted, never stored, and the aliases skipped.
      count_tail_op_ = num_ops_ - k;
      const size_t comp = num_ops_ - 2 * k;
      bool at_comp = num_ops_ > 2 * k &&
                     plan_.sigma[comp].type == OpType::kCompute &&
                     plan_.sigma[comp].vertex == closure[0];
      for (size_t i = comp + 1; at_comp && i < count_tail_op_; ++i) {
        const int t = plan_.sigma[i].vertex;
        const Operands& ops = plan_.operands[static_cast<size_t>(t)];
        at_comp = plan_.sigma[i].type == OpType::kCompute &&
                  ops.k1.empty() && ops.k2 == std::vector<int>{closure[0]} &&
                  (plan_.comp_windows.empty() ||
                   plan_.comp_windows[static_cast<size_t>(t)].empty());
      }
      if (at_comp) count_tail_op_ = comp;
    }
  }
  SetVisitor(nullptr);  // count until a visitor is set

  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  obs_roots_counter_ = registry.GetCounter("engine.roots_done");
  obs_matches_counter_ = registry.GetCounter("engine.matches_found");
  obs_root_ns_hist_ = registry.GetHistogram("engine.root_ns");

  ResetStats();
}

Enumerator::~Enumerator() {
  if (arena_ == nullptr) return;
  // Return every borrowed buffer so the arena's next enumerator (the next
  // query on this worker thread) reuses the allocations. Must run on the
  // arena's owning thread (see the constructor contract).
  arena_->ReleaseVertexBuffer(std::move(scratch_));
  arena_->ReleaseVertexBuffer(std::move(wedge_counts_));
  arena_->ReleaseVertexBuffer(std::move(wedge_touched_));
  for (auto& buffer : cand_buffer_) {
    arena_->ReleaseVertexBuffer(std::move(buffer));
  }
  arena_->ReleaseWordBuffer(std::move(word_scratch_));
}

void Enumerator::ResetStats() {
  const size_t cand_bytes = stats_.candidate_memory_bytes;
  stats_ = EngineStats();
  stats_.comp_counts.assign(
      static_cast<size_t>(plan_.pattern.NumVertices()), 0);
  stats_.mat_counts.assign(static_cast<size_t>(plan_.pattern.NumVertices()),
                           0);
  stats_.candidate_memory_bytes = cand_bytes;
  stop_ = false;
  deadline_ticks_ = 0;
}

uint64_t Enumerator::Count() {
  ResetStats();
  SetVisitor(nullptr);
  timer_.Restart();
  obs::TraceSpan span("enumerate");
  RunRootRange(0, graph_.NumVertices());
  stats_.elapsed_seconds = timer_.ElapsedSeconds();
  return stats_.num_matches;
}

uint64_t Enumerator::Enumerate(MatchVisitor* visitor) {
  // Counted-tail plans never materialize their tail, so there is no full
  // mapping to visit — they exist for counting only (light::Run routes
  // visitor queries to ordinary plans).
  LIGHT_CHECK(!plan_.HasCountedTail());
  ResetStats();
  SetVisitor(visitor);
  timer_.Restart();
  {
    obs::TraceSpan span("enumerate");
    RunRootRange(0, graph_.NumVertices());
  }
  stats_.elapsed_seconds = timer_.ElapsedSeconds();
  SetVisitor(nullptr);
  return stats_.num_matches;
}

void Enumerator::SetVisitor(MatchVisitor* visitor) {
  visitor_ = visitor;
  tail_begin_op_ = visitor == nullptr
                       ? count_tail_op_
                       : num_ops_ - plan_.counted_tail.size();
}

void Enumerator::SetBitmapIndex(const BitmapIndex* index) {
  bitmap_index_ = (index != nullptr && !index->empty()) ? index : nullptr;
  if (bitmap_index_ != nullptr) {
    if (arena_ != nullptr && word_scratch_.capacity() == 0) {
      word_scratch_ = arena_->AcquireWordBuffer(bitmap_index_->words());
    } else {
      word_scratch_.assign(bitmap_index_->words(), 0);
    }
  } else {
    word_scratch_.clear();
  }
}

void Enumerator::RunRootRange(VertexID begin, VertexID end) {
  for (VertexID v = begin; v < end && !stop_; ++v) RunRoot(v);
  FlushObsCounters();
}

void Enumerator::FlushObsCounters() {
  if (obs_pending_roots_ == 0 && obs_pending_matches_ == 0) return;
  obs_roots_counter_->Inc(obs_pending_roots_);
  obs_matches_counter_->Inc(obs_pending_matches_);
  obs_pending_roots_ = 0;
  obs_pending_matches_ = 0;
}

void Enumerator::RunRoot(VertexID v) {
  const bool metrics_on = obs::MetricsEnabled();
  obs::Tracer& tracer = obs::Tracer::Global();
  const bool trace_on =
      tracer.enabled() && (v & tracer.root_sample_mask()) == 0;
  if (!metrics_on && !trace_on) {
    RunRootImpl(v);
    return;
  }
  // Sample the per-root latency histogram at the same 1/64 rate the counter
  // batching uses, so the armed-but-idle cost stays amortized.
  const bool timed = trace_on || (metrics_on && (v & 0x3F) == 0);
  const uint64_t matches_before = stats_.num_matches;
  const uint64_t start_ns = timed ? tracer.NowNs() : 0;
  trace_root_ = trace_on;
  RunRootImpl(v);
  trace_root_ = false;
  if (timed) {
    const uint64_t dur_ns = tracer.NowNs() - start_ns;
    if (trace_on) {
      tracer.EmitSpan("root", start_ns, dur_ns, "v",
                      static_cast<int64_t>(v));
    }
    if (metrics_on) obs_root_ns_hist_->Observe(dur_ns);
  }
  if (metrics_on) {
    ++obs_pending_roots_;
    obs_pending_matches_ += stats_.num_matches - matches_before;
    if ((obs_pending_roots_ & 0x3F) == 0) FlushObsCounters();
  }
}

void Enumerator::RunRootImpl(VertexID v) {
  if (stop_) return;
  const int first = plan_.FirstVertex();
  if (!LabelMatches(first, v)) return;
  ++stats_.mat_counts[static_cast<size_t>(first)];
  ++stats_.num_partial_results;
  mapping_[static_cast<size_t>(first)] = v;
  if (num_ops_ == 1) {
    EmitMatch();
  } else {
    Run(1);
  }
  mapping_[static_cast<size_t>(first)] = kInvalidVertex;
}

bool Enumerator::CheckDeadline() {
  if ((++deadline_ticks_ & 0x3FFu) == 0 &&
      timer_.ElapsedSeconds() > time_limit_seconds_) {
    stop_ = true;
    stats_.timed_out = true;
  }
  return stop_;
}

void Enumerator::EmitMatch() {
  ++stats_.num_matches;
  if (visitor_ != nullptr && !visitor_->OnMatch(mapping_)) stop_ = true;
}

void Enumerator::Run(size_t op_index) {
  if (op_index == tail_begin_op_) {
    // Close the match count analytically: the kernel of a counted-tail
    // plan is bound, or a count-only run reached a twin closure.
    if (plan_.HasCountedTail()) {
      RunCountedTail();
    } else {
      RunTwinClosure();
    }
    return;
  }
  if (plan_.sigma[op_index].type == OpType::kCompute) {
    RunCompute(op_index);
  } else {
    RunMaterialize(op_index);
  }
}

uint32_t Enumerator::FilterByLabel(int u, const VertexID* data,
                                   uint32_t size) {
  const uint32_t want = plan_.pattern.Label(u);
  auto& buffer = cand_buffer_[static_cast<size_t>(u)];
  uint32_t out = 0;
  for (uint32_t i = 0; i < size; ++i) {
    if ((*data_labels_)[data[i]] == want) buffer[out++] = data[i];
  }
  return out;
}

void Enumerator::RunCompute(size_t op_index) {
  const int u = plan_.sigma[op_index].vertex;
  ScopedOpSpan span(trace_root_, "COMP", u);
  if (universal_[static_cast<size_t>(u)]) {
    // Candidate set is V(G); nothing to compute (it is never empty; labels
    // are checked during materialization).
    Run(op_index + 1);
    return;
  }
  if (fused_leaf_ && visitor_ == nullptr && op_index + 2 == num_ops_) {
    AddLeafMatches(u, CountLeafCandidates(u));
    return;
  }
  if (ComputeCandidateSet(u) > 0) Run(op_index + 1);
}

std::pair<VertexID, VertexID> Enumerator::Window(
    const std::vector<int>& lower, const std::vector<int>& upper) const {
  VertexID lo = 0;
  VertexID hi = graph_.NumVertices();
  for (int x : lower) lo = std::max(lo, mapping_[static_cast<size_t>(x)] + 1);
  for (int y : upper) hi = std::min(hi, mapping_[static_cast<size_t>(y)]);
  return {lo, hi};
}

size_t Enumerator::GatherOperands(int u, VertexID lo, VertexID hi,
                                  SetView* sets) const {
  const bool cut_lo = lo > 0;
  const bool cut_hi = hi < graph_.NumVertices();
  const auto cut = [&](const VertexID* begin, const VertexID* end) {
    if (cut_lo) begin = CutFront(begin, end, lo);
    if (cut_hi) end = CutBack(begin, end, hi);
    return std::span<const VertexID>(begin, end);
  };
  // K1 operands are graph neighborhoods and may carry bitmap-index rows;
  // K2 operands are earlier candidate sets and are always array-only. With
  // no index attached every view is array-only and the multiway hybrid
  // degenerates to the pure Algorithm 4 routing.
  const Operands& ops = plan_.operands[static_cast<size_t>(u)];
  size_t k = 0;
  for (int x : ops.k1) {
    const VertexID mapped = mapping_[static_cast<size_t>(x)];
    const uint64_t* row =
        bitmap_index_ != nullptr ? bitmap_index_->Row(mapped) : nullptr;
    const std::span<const VertexID> nbrs = graph_.Neighbors(mapped);
    sets[k] = SetView(cut(nbrs.data(), nbrs.data() + nbrs.size()), row);
    if (sets[k++].size() == 0) return 0;
  }
  for (int y : ops.k2) {
    const VertexID* data = cand_data_[static_cast<size_t>(y)];
    sets[k] = SetView(cut(data, data + cand_size_[static_cast<size_t>(y)]));
    if (sets[k++].size() == 0) return 0;
  }
  return k;
}

uint32_t Enumerator::ComputeCandidateSet(int u) {
  ++stats_.comp_counts[static_cast<size_t>(u)];
  VertexID lo = 0;
  VertexID hi = graph_.NumVertices();
  if (!plan_.comp_windows.empty() &&
      !plan_.comp_windows[static_cast<size_t>(u)].empty()) {
    const CompWindow& window = plan_.comp_windows[static_cast<size_t>(u)];
    std::tie(lo, hi) = Window(window.lower, window.upper);
  }
  std::array<SetView, kMaxPatternVertices> sets;
  const size_t k = lo < hi ? GatherOperands(u, lo, hi, sets.data()) : 0;
  if (k == 0) {
    cand_size_[static_cast<size_t>(u)] = 0;
    return 0;
  }
  // Labels are safe to bake into the stored set: the set-cover construction
  // only reuses C(u') through K2 with an identical or weaker label filter.
  auto& buffer = cand_buffer_[static_cast<size_t>(u)];
  const bool filter =
      data_labels_ != nullptr && plan_.pattern.Label(u) != 0;
  if (k == 1 && !filter) {
    // Single operand: alias it instead of copying (w_u = 0 intersections).
    cand_data_[static_cast<size_t>(u)] = sets[0].sorted.data();
    cand_size_[static_cast<size_t>(u)] = static_cast<uint32_t>(sets[0].size());
  } else if (k == 1) {
    cand_size_[static_cast<size_t>(u)] = FilterByLabel(
        u, sets[0].sorted.data(), static_cast<uint32_t>(sets[0].size()));
    cand_data_[static_cast<size_t>(u)] = buffer.data();
  } else {
    size_t size = IntersectMultiwayHybrid(
        {sets.data(), k}, buffer.data(), scratch_.data(),
        word_scratch_.empty() ? nullptr : word_scratch_.data(),
        word_scratch_.size(), kernel_, &stats_.intersections);
    if (filter) {
      // In-place compaction over the vertex's own buffer.
      size = FilterByLabel(u, buffer.data(), static_cast<uint32_t>(size));
    }
    cand_data_[static_cast<size_t>(u)] = buffer.data();
    cand_size_[static_cast<size_t>(u)] = static_cast<uint32_t>(size);
  }
  return cand_size_[static_cast<size_t>(u)];
}

uint64_t Enumerator::CountLeafCandidates(int u) {
  ++stats_.comp_counts[static_cast<size_t>(u)];
  if (CheckDeadline()) return 0;
  // Nothing is bound between this COMP and its MAT, so the MAT window is
  // known here (it implies the COMP window).
  const auto [lo, hi] = Window(plan_.lower_bounds[static_cast<size_t>(u)],
                               plan_.upper_bounds[static_cast<size_t>(u)]);
  std::array<SetView, kMaxPatternVertices> sets;
  const size_t k = lo < hi ? GatherOperands(u, lo, hi, sets.data()) : 0;
  if (k == 0) return 0;
  uint64_t count = sets[0].size();
  if (k > 1) {
    // Smallest first, as IntersectMultiwayHybrid chains them; only the last
    // pairwise step, against the largest operand, is counted.
    std::sort(sets.begin(), sets.begin() + static_cast<ptrdiff_t>(k),
              [](const SetView& a, const SetView& b) {
                return a.size() < b.size();
              });
    SetView partial = sets[0];
    if (k > 2) {
      VertexID* buffer = cand_buffer_[static_cast<size_t>(u)].data();
      const size_t size = IntersectMultiwayHybrid(
          {sets.data(), k - 1}, buffer, scratch_.data(),
          word_scratch_.empty() ? nullptr : word_scratch_.data(),
          word_scratch_.size(), kernel_, &stats_.intersections);
      // A bitmap AND of whole rows can reach outside the window: cut again.
      const VertexID* begin = CutFront(buffer, buffer + size, lo);
      partial = SetView({begin, CutBack(begin, buffer + size, hi)});
    }
    count = CountHybridPair(partial, sets[k - 1], word_scratch_.size(),
                            kernel_, &stats_.intersections);
  }
  // Injectivity: a bound vertex in every operand was counted as a candidate.
  const std::vector<int>& distinct = distinct_[static_cast<size_t>(u)];
  for (size_t i = 0; i < distinct.size() && count > 0; ++i) {
    const VertexID b = mapping_[static_cast<size_t>(distinct[i])];
    bool in_all = lo <= b && b < hi;
    for (size_t j = 0; j < k && in_all; ++j) {
      const std::span<const VertexID> set = sets[j].sorted;
      in_all = Contains(set.data(), set.data() + set.size(), b);
    }
    if (in_all) --count;
  }
  return count;
}

uint64_t Enumerator::CountUnbound(int u, const VertexID* begin,
                                  const VertexID* end, VertexID lo,
                                  VertexID hi) const {
  uint64_t count = static_cast<uint64_t>(end - begin);
  const std::vector<int>& distinct = distinct_[static_cast<size_t>(u)];
  for (size_t i = 0; i < distinct.size() && count > 0; ++i) {
    const VertexID b = mapping_[static_cast<size_t>(distinct[i])];
    if (lo <= b && b < hi && Contains(begin, end, b)) --count;
  }
  return count;
}

void Enumerator::AddLeafMatches(int u, uint64_t count) {
  stats_.mat_counts[static_cast<size_t>(u)] += count;
  stats_.num_partial_results += count;
  stats_.num_matches += count;
}

void Enumerator::RunCountedTail() {
  if (CheckDeadline()) return;
  // Every tail candidate set is a kernel-neighborhood intersection, so it
  // is sorted and disjoint from other tails' injectivity concerns (terms
  // account for tail-tail collisions by construction); only bound KERNEL
  // vertices must be subtracted, and of those only t's non-neighbors.
  uint64_t product = 1;
  for (int t : plan_.counted_tail) {
    const uint32_t size = ComputeCandidateSet(t);
    const VertexID* data = cand_data_[static_cast<size_t>(t)];
    uint64_t count = size;
    for (int x : distinct_[static_cast<size_t>(t)]) {
      const VertexID b = mapping_[static_cast<size_t>(x)];
      if (std::binary_search(data, data + size, b)) --count;
    }
    if (count == 0) return;
    product *= count;
  }
  stats_.num_matches += product;
}

void Enumerator::RunTwinClosure() {
  const std::vector<int>& closure = plan_.twin_closure;
  const size_t k = closure.size() - (twin_b_ < 0 ? 0 : 1);
  const int t1 = closure[0];
  uint64_t m = 0;  // |S|
  uint64_t closed = 0;  // matches b closes
  const bool at_comp = plan_.sigma[tail_begin_op_].type == OpType::kCompute;
  if (at_comp) {
    ScopedOpSpan span(trace_root_, "COMP", t1);
    m = CountLeafCandidates(t1);
  }
  ScopedOpSpan span(trace_root_, "MAT", t1);
  if (!at_comp) {
    // S: C(t1) inside the twins' shared window, minus the bound data
    // vertices.
    const auto [lo, hi] = Window(plan_.lower_bounds[static_cast<size_t>(t1)],
                                 plan_.upper_bounds[static_cast<size_t>(t1)]);
    if (lo >= hi) return;
    const VertexID* begin = cand_data_[static_cast<size_t>(t1)];
    const VertexID* end = begin + cand_size_[static_cast<size_t>(t1)];
    if (lo > 0) begin = LowerBound(begin, end, lo);
    if (hi < graph_.NumVertices()) end = LowerBound(begin, end, hi);
    if (twin_b_ >= 0) {
      closed = ScatterTwins(begin, end, &m);
    } else if (!CheckDeadline()) {
      m = CountUnbound(t1, begin, end, lo, hi);
    }
  }
  if (stop_) return;
  // The twins bind, in chain order, to every i-subset of S.
  for (size_t i = 1; i <= k; ++i) {
    const uint64_t extensions = Choose(m, i);
    stats_.mat_counts[static_cast<size_t>(closure[i - 1])] += extensions;
    stats_.num_partial_results += extensions;
  }
  if (twin_b_ < 0) {
    stats_.num_matches += Choose(m, k);
  } else {
    AddLeafMatches(twin_b_, closed);
  }
}

uint64_t Enumerator::ScatterTwins(const VertexID* begin, const VertexID* end,
                                  uint64_t* m) {
  const size_t k = plan_.twin_closure.size() - 1;
  const int b = twin_b_;
  const std::vector<int>& distinct =
      distinct_[static_cast<size_t>(plan_.twin_closure[0])];
  const auto [b_lo, b_hi] = Window(plan_.lower_bounds[static_cast<size_t>(b)],
                                   plan_.upper_bounds[static_cast<size_t>(b)]);
  // Scatter: cnt[w] = |N(w) cap S| over b's window. The twins' images are
  // never b's (no self-loops), so every k-subset of S adjacent to w is one
  // match of the twins and b. Until k lists reach into b's window no w can
  // close a match, so the first k - 1 wait unscanned.
  uint32_t* counts = wedge_counts_.data();
  const auto scatter = [&](const VertexID* w, const VertexID* w_end) {
    stats_.intersections.elements += static_cast<uint64_t>(w_end - w);
    for (; w < w_end; ++w) {
      if (counts[*w]++ == 0) wedge_touched_.push_back(*w);
    }
  };
  std::array<std::pair<const VertexID*, const VertexID*>, kMaxPatternVertices>
      waiting;
  size_t lists = 0;
  for (const VertexID* it = begin; it != end; ++it) {
    if (CheckDeadline()) break;
    const VertexID s = *it;
    bool bound = false;
    for (int x : distinct) bound |= mapping_[static_cast<size_t>(x)] == s;
    if (bound) continue;
    ++*m;
    const std::span<const VertexID> nbrs = graph_.Neighbors(s);
    const VertexID* w = nbrs.data();
    const VertexID* w_end = w + nbrs.size();
    if (b_lo > 0) w = CutFront(w, w_end, b_lo);
    if (b_hi < graph_.NumVertices()) w_end = CutBack(w, w_end, b_hi);
    if (w == w_end) continue;
    if (lists < k - 1) {
      waiting[lists++] = {w, w_end};
      continue;
    }
    if (lists++ == k - 1) {
      for (size_t i = 0; i + 1 < k; ++i) {
        scatter(waiting[i].first, waiting[i].second);
      }
    }
    scatter(w, w_end);
  }
  // b's only neighbours are the twins, so every bound vertex is one b must
  // avoid.
  for (int x : distinct_[static_cast<size_t>(b)]) {
    counts[mapping_[static_cast<size_t>(x)]] = 0;
  }
  uint64_t matches = 0;
  for (const VertexID w : wedge_touched_) {
    matches += k == 2 ? uint64_t{counts[w]} * (counts[w] - 1) / 2
                      : Choose(counts[w], k);
    counts[w] = 0;
  }
  wedge_touched_.clear();
  return matches;
}

void Enumerator::RunMaterialize(size_t op_index) {
  const int u = plan_.sigma[op_index].vertex;
  ScopedOpSpan span(trace_root_, "MAT", u);

  // Symmetry-breaking window: v must lie in [lo, hi).
  const auto [lo, hi] = Window(plan_.lower_bounds[static_cast<size_t>(u)],
                               plan_.upper_bounds[static_cast<size_t>(u)]);
  if (lo >= hi) return;

  const bool last_op = op_index + 1 == num_ops_;
  const bool counting_leaf = last_op && visitor_ == nullptr;
  const std::vector<int>& distinct = distinct_[static_cast<size_t>(u)];

  // Labels are already checked: non-universal candidate sets went through
  // FilterByLabel in COMP, and the universal loop below checks them itself.
  auto try_vertex = [&](VertexID v) {
    // Injectivity: skip data vertices already bound (Algorithm 1 line 12).
    for (int x : distinct) {
      if (mapping_[static_cast<size_t>(x)] == v) return;
    }
    // Induced matching: pattern non-edges require data non-edges.
    for (int w : plan_.non_adjacent[static_cast<size_t>(u)]) {
      if (graph_.HasEdge(v, mapping_[static_cast<size_t>(w)])) return;
    }
    if (counting_leaf) {
      AddLeafMatches(u, 1);
      return;
    }
    ++stats_.mat_counts[static_cast<size_t>(u)];
    ++stats_.num_partial_results;
    mapping_[static_cast<size_t>(u)] = v;
    if (last_op) {
      EmitMatch();
    } else {
      Run(op_index + 1);
    }
    mapping_[static_cast<size_t>(u)] = kInvalidVertex;
  };

  if (universal_[static_cast<size_t>(u)]) {
    for (VertexID v = lo; v < hi && !stop_; ++v) {
      if (CheckDeadline()) return;
      if (!LabelMatches(u, v)) continue;
      try_vertex(v);
    }
    return;
  }

  const VertexID* data = cand_data_[static_cast<size_t>(u)];
  const uint32_t size = cand_size_[static_cast<size_t>(u)];
  const VertexID* begin = data;
  const VertexID* end = data + size;
  if (lo > 0) begin = LowerBound(begin, end, lo);
  if (hi < graph_.NumVertices()) end = LowerBound(begin, end, hi);
  if (counting_leaf && plan_.non_adjacent[static_cast<size_t>(u)].empty()) {
    // Count the leaf instead of walking it; injectivity subtracts the bound
    // vertices inside the window.
    if (CheckDeadline()) return;
    AddLeafMatches(u, CountUnbound(u, begin, end, lo, hi));
    return;
  }
  for (const VertexID* it = begin; it != end && !stop_; ++it) {
    if (CheckDeadline()) return;
    try_vertex(*it);
  }
}

}  // namespace light
