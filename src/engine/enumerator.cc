#include "engine/enumerator.h"

#include <algorithm>
#include <array>
#include <cmath>
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
  if (!KernelAvailable(kernel_)) kernel_ = IntersectKernel::kHybrid;

  mapping_.assign(static_cast<size_t>(n), kInvalidVertex);
  cand_buffer_.resize(static_cast<size_t>(n));
  cand_data_.assign(static_cast<size_t>(n), nullptr);
  cand_size_.assign(static_cast<size_t>(n), 0);
  universal_.assign(static_cast<size_t>(n), false);
  bound_values_.reserve(static_cast<size_t>(n));
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
  visitor_ = nullptr;
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
  visitor_ = visitor;
  timer_.Restart();
  {
    obs::TraceSpan span("enumerate");
    RunRootRange(0, graph_.NumVertices());
  }
  stats_.elapsed_seconds = timer_.ElapsedSeconds();
  visitor_ = nullptr;
  return stats_.num_matches;
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
  if (allowed_ != nullptr) {
    const auto& list = (*allowed_)[static_cast<size_t>(first)];
    if (!std::binary_search(list.begin(), list.end(), v)) return;
  }
  ++stats_.mat_counts[static_cast<size_t>(first)];
  ++stats_.num_partial_results;
  mapping_[static_cast<size_t>(first)] = v;
  bound_values_.push_back(v);
  if (num_ops_ == 1) {
    EmitMatch();
  } else {
    Run(1);
  }
  bound_values_.pop_back();
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
    // Kernel fully bound; close the match count analytically.
    RunCountedTail();
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
    if (allowed_ != nullptr) {
      // No backward neighbors, but the candidate space bounds u directly.
      const auto& list = (*allowed_)[static_cast<size_t>(u)];
      ++stats_.comp_counts[static_cast<size_t>(u)];
      cand_data_[static_cast<size_t>(u)] = list.data();
      cand_size_[static_cast<size_t>(u)] = static_cast<uint32_t>(list.size());
      if (!list.empty()) Run(op_index + 1);
      return;
    }
    // Candidate set is V(G); nothing to compute (it is never empty; labels
    // are checked during materialization).
    Run(op_index + 1);
    return;
  }
  if (ComputeCandidateSet(u) > 0) Run(op_index + 1);
}

uint32_t Enumerator::ComputeCandidateSet(int u) {
  const Operands& ops = plan_.operands[static_cast<size_t>(u)];
  // K1 operands are graph neighborhoods and may carry bitmap-index rows;
  // K2 operands are earlier candidate sets and are always array-only. With
  // no index attached every view is array-only and the multiway hybrid
  // degenerates to the pure Algorithm 4 routing.
  std::array<SetView, kMaxPatternVertices> sets;
  size_t k = 0;
  for (int x : ops.k1) {
    const VertexID mapped = mapping_[static_cast<size_t>(x)];
    const uint64_t* row =
        bitmap_index_ != nullptr ? bitmap_index_->Row(mapped) : nullptr;
    sets[k++] = SetView(graph_.Neighbors(mapped), row);
  }
  for (int y : ops.k2) {
    sets[k++] = SetView({cand_data_[static_cast<size_t>(y)],
                         cand_size_[static_cast<size_t>(y)]});
  }
  // NOTE: the candidate-space restriction (allowed_) is deliberately NOT an
  // intersection operand here: stored candidate sets are reused through K2
  // by later vertices with different allowed lists, so baking u's
  // restriction in would over-prune them. Membership is checked at
  // materialization instead. (Labels are safe to bake in because the
  // set-cover construction only reuses C(u') with an identical or weaker
  // label filter.)
  ++stats_.comp_counts[static_cast<size_t>(u)];
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

void Enumerator::RunCountedTail() {
  if (CheckDeadline()) return;
  // Every tail candidate set is a kernel-neighborhood intersection, so it
  // is sorted and disjoint from other tails' injectivity concerns (terms
  // account for tail-tail collisions by construction); only bound KERNEL
  // vertices must be subtracted.
  uint64_t product = 1;
  for (int t : plan_.counted_tail) {
    const uint32_t size = ComputeCandidateSet(t);
    const VertexID* data = cand_data_[static_cast<size_t>(t)];
    uint64_t count = size;
    for (VertexID b : bound_values_) {
      if (std::binary_search(data, data + size, b)) --count;
    }
    if (count == 0) return;
    product *= count;
  }
  stats_.num_matches += product;
}

void Enumerator::RunMaterialize(size_t op_index) {
  const int u = plan_.sigma[op_index].vertex;
  ScopedOpSpan span(trace_root_, "MAT", u);

  // Symmetry-breaking window: v must lie in [lo, hi).
  VertexID lo = 0;
  VertexID hi = graph_.NumVertices();
  for (int x : plan_.lower_bounds[static_cast<size_t>(u)]) {
    lo = std::max(lo, mapping_[static_cast<size_t>(x)] + 1);
  }
  for (int y : plan_.upper_bounds[static_cast<size_t>(u)]) {
    hi = std::min(hi, mapping_[static_cast<size_t>(y)]);
  }
  if (lo >= hi) return;

  const bool last_op = op_index + 1 == num_ops_;
  const bool counting_leaf = last_op && visitor_ == nullptr;
  // Universal vertices with a candidate space iterate the allowed list
  // itself (COMP pointed cand_data_ at it), so no membership check needed.
  const bool check_allowed =
      allowed_ != nullptr && !universal_[static_cast<size_t>(u)];
  const std::vector<VertexID>* allowed_list =
      check_allowed ? &(*allowed_)[static_cast<size_t>(u)] : nullptr;

  auto try_vertex = [&](VertexID v) {
    if (allowed_list != nullptr &&
        !std::binary_search(allowed_list->begin(), allowed_list->end(), v)) {
      return;
    }
    // Redundant for label-filtered candidate buffers (cheap: wildcard
    // short-circuits), load-bearing for allowed lists built without labels.
    if (!LabelMatches(u, v)) return;
    // Injectivity: skip data vertices already bound (Algorithm 1 line 12).
    for (VertexID b : bound_values_) {
      if (b == v) return;
    }
    // Induced matching: pattern non-edges require data non-edges.
    for (int w : plan_.non_adjacent[static_cast<size_t>(u)]) {
      if (graph_.HasEdge(v, mapping_[static_cast<size_t>(w)])) return;
    }
    if (counting_leaf) {
      ++stats_.mat_counts[static_cast<size_t>(u)];
      ++stats_.num_partial_results;
      ++stats_.num_matches;
      return;
    }
    ++stats_.mat_counts[static_cast<size_t>(u)];
    ++stats_.num_partial_results;
    mapping_[static_cast<size_t>(u)] = v;
    bound_values_.push_back(v);
    if (last_op) {
      EmitMatch();
    } else {
      Run(op_index + 1);
    }
    bound_values_.pop_back();
    mapping_[static_cast<size_t>(u)] = kInvalidVertex;
  };

  if (universal_[static_cast<size_t>(u)] && allowed_ == nullptr) {
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
  if (lo > 0) begin = std::lower_bound(begin, end, lo);
  if (hi < graph_.NumVertices()) end = std::lower_bound(begin, end, hi);
  for (const VertexID* it = begin; it != end && !stop_; ++it) {
    if (CheckDeadline()) return;
    try_vertex(*it);
  }
}

}  // namespace light
