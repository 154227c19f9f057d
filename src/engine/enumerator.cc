#include "engine/enumerator.h"

#include <algorithm>
#include <array>
#include <bit>
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
  for (const Operation& op : plan_.sigma) {
    if (op.type != OpType::kMaterialize) continue;
    for (int x = 0; x < n; ++x) {
      if ((bound >> x & 1u) != 0 && !plan_.pattern.HasEdge(x, op.vertex)) {
        distinct_[static_cast<size_t>(op.vertex)].push_back(x);
      }
    }
    bound |= 1u << op.vertex;
  }

  leaf_op_ = num_ops_;
  const CountLeaf& leaf = plan_.leaf;
  const auto labeled = [&](int u) {
    return data_labels_ != nullptr && plan_.pattern.Label(u) != 0;
  };
  if (!leaf.empty() && !(leaf.b >= 0 && labeled(leaf.b))) {
    const size_t k = leaf.tail.size();
    const int t1 = leaf.tail[0];
    if (leaf.b >= 0) {
      // sigma ends MAT(t1) ... MAT(tk) COMP(b) MAT(b).
      leaf_op_ = num_ops_ - k - 2;
      const size_t num_vertices = graph_.NumVertices();
      if (arena_ != nullptr) {
        wedge_counts_ = arena_->AcquireVertexBuffer(num_vertices);
        wedge_touched_ = arena_->AcquireVertexBuffer(0);
      }
      wedge_counts_.assign(num_vertices, 0);
    } else if (leaf.twins()) {
      // If before MAT(t1) ... MAT(tk) sigma ends COMP(t1), then COMPs of
      // t2..tk that alias C(t1) uncut, the leaf is entered at COMP(t1):
      // C(t1) is counted, never stored, and the aliases skipped. That count
      // filters no labels, so a labeled t1 on labeled data enters at MAT.
      leaf_op_ = num_ops_ - k;
      const size_t comp = num_ops_ - 2 * k;
      bool at_comp = num_ops_ > 2 * k && !labeled(t1) &&
                     plan_.sigma[comp].type == OpType::kCompute &&
                     plan_.sigma[comp].vertex == t1;
      for (size_t i = comp + 1; at_comp && i < leaf_op_; ++i) {
        const int t = plan_.sigma[i].vertex;
        const Operands& ops = plan_.operands[static_cast<size_t>(t)];
        at_comp = plan_.sigma[i].type == OpType::kCompute &&
                  ops.k1.empty() && ops.k2 == std::vector<int>{t1} &&
                  (plan_.comp_windows.empty() ||
                   plan_.comp_windows[static_cast<size_t>(t)].empty());
      }
      if (at_comp) leaf_op_ = comp;
    } else {
      leaf_op_ = num_ops_ - k;
      WirePartitionLeaf();
    }
  }
  SetVisitor(nullptr);  // count until a visitor is set

  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  obs_roots_counter_ = registry.GetCounter("engine.roots_done");
  obs_matches_counter_ = registry.GetCounter("engine.matches_found");
  obs_root_ns_hist_ = registry.GetHistogram("engine.root_ns");

  ResetStats();
}

void Enumerator::WirePartitionLeaf() {
  const CountLeaf& leaf = plan_.leaf;
  const int n = plan_.pattern.NumVertices();
  const size_t k = leaf.tail.size();
  uint32_t tail_mask = 0;
  for (int t : leaf.tail) tail_mask |= 1u << t;
  // A block reads the sets of its members with the most neighbours:
  // one member adjacent to every neighbour of the block (whose label
  // filter, on labeled data, is the block's) reads C_B alone, since its
  // set lies inside every other member's. Blocks that then read the
  // same sets in the same window share one entry.
  const auto block_of = [&](uint32_t key) {
    LeafBlock block;
    uint32_t neighbours = 0;
    for (size_t p = 0; p < k; ++p) {
      if (key >> p & 1u) {
        block.members |= 1u << p;
        block.sources.push_back(p);
        neighbours |= plan_.pattern.NeighborMask(leaf.tail[p]);
      }
    }
    for (const size_t p : block.sources) {
      const int t = leaf.tail[p];
      const uint32_t label = plan_.pattern.Label(t);
      const bool covers =
          plan_.pattern.NeighborMask(t) == neighbours &&
          std::all_of(block.sources.begin(), block.sources.end(),
                      [&](size_t q) {
                        const uint32_t want =
                            plan_.pattern.Label(leaf.tail[q]);
                        return data_labels_ == nullptr || want == 0 ||
                               want == label;
                      });
      if (covers) {
        block.sources = {p};
        break;
      }
    }
    for (int x = 0; x < n; ++x) {
      if ((tail_mask >> x & 1u) == 0 && (neighbours >> x & 1u) == 0) {
        block.unbound.push_back(x);
      }
    }
    return block;
  };
  const auto same_window = [&](uint32_t a, uint32_t b) {
    const auto bounds = [&](uint32_t members, bool lower) {
      std::vector<int> out;
      for (size_t p = 0; p < k; ++p) {
        if ((members >> p & 1u) == 0) continue;
        const size_t t = static_cast<size_t>(leaf.tail[p]);
        for (int x : lower ? plan_.lower_bounds[t] : plan_.upper_bounds[t]) {
          out.push_back(x);
        }
      }
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
      return out;
    };
    return bounds(a, true) == bounds(b, true) &&
           bounds(a, false) == bounds(b, false);
  };
  std::vector<uint32_t> keys;
  std::vector<size_t> block_index;
  for (const std::vector<LeafTerm>& prefix : leaf.terms) {
    std::vector<LeafProduct>& products = leaf_terms_.emplace_back();
    for (const LeafTerm& term : prefix) {
      LeafProduct& product = products.emplace_back();
      product.coefficient = static_cast<uint64_t>(term.coefficient);
      for (const uint32_t key : term.blocks) {
        const size_t j = static_cast<size_t>(
            std::find(keys.begin(), keys.end(), key) - keys.begin());
        if (j == keys.size()) {
          keys.push_back(key);
          LeafBlock block = block_of(key);
          size_t same = 0;
          while (same < leaf_blocks_.size() &&
                 !(leaf_blocks_[same].sources == block.sources &&
                   leaf_blocks_[same].unbound == block.unbound &&
                   same_window(leaf_blocks_[same].members,
                               block.members))) {
            ++same;
          }
          if (same == leaf_blocks_.size()) {
            if (block.sources.size() > 2 && leaf_buffer_.empty()) {
              leaf_buffer_.resize(graph_.MaxDegree());
            }
            leaf_blocks_.push_back(std::move(block));
          }
          block_index.push_back(same);
        }
        product.blocks[product.num_blocks++] =
            static_cast<uint8_t>(block_index[j]);
      }
    }
  }
  leaf_sizes_.assign(leaf_blocks_.size(), 0);
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
  tail_begin_op_ = visitor == nullptr ? leaf_op_ : num_ops_;
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
    RunLeaf();
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
  return CountIntersection(sets.data(), k, lo, hi,
                           distinct_[static_cast<size_t>(u)],
                           cand_buffer_[static_cast<size_t>(u)].data());
}

uint64_t Enumerator::CountIntersection(SetView* sets, size_t k, VertexID lo,
                                       VertexID hi,
                                       const std::vector<int>& unbound,
                                       VertexID* buffer) {
  uint64_t count = sets[0].size();
  if (k > 1) {
    // Smallest first, as IntersectMultiwayHybrid chains them; only the last
    // pairwise step, against the largest operand, is counted.
    std::sort(sets, sets + k, [](const SetView& a, const SetView& b) {
      return a.size() < b.size();
    });
    SetView partial = sets[0];
    if (k > 2) {
      const size_t size = IntersectMultiwayHybrid(
          {sets, k - 1}, buffer, scratch_.data(),
          word_scratch_.empty() ? nullptr : word_scratch_.data(),
          word_scratch_.size(), kernel_, &stats_.intersections);
      // A bitmap AND of whole rows can reach outside the window: cut again.
      const VertexID* begin = CutFront(buffer, buffer + size, lo);
      partial = SetView({begin, CutBack(begin, buffer + size, hi)});
    }
    count = CountHybridPair(partial, sets[k - 1], word_scratch_.size(),
                            kernel_, &stats_.intersections);
  }
  // Injectivity: a bound vertex in every set was counted as a candidate.
  for (size_t i = 0; i < unbound.size() && count > 0; ++i) {
    const VertexID b = mapping_[static_cast<size_t>(unbound[i])];
    bool in_all = lo <= b && b < hi;
    for (size_t j = 0; j < k && in_all; ++j) {
      const std::span<const VertexID> set = sets[j].sorted;
      in_all = Contains(set.data(), set.data() + set.size(), b);
    }
    if (in_all) --count;
  }
  return count;
}

uint64_t Enumerator::CountUnbound(const std::vector<int>& unbound,
                                  const VertexID* begin, const VertexID* end,
                                  VertexID lo, VertexID hi) const {
  uint64_t count = static_cast<uint64_t>(end - begin);
  for (size_t i = 0; i < unbound.size() && count > 0; ++i) {
    const VertexID b = mapping_[static_cast<size_t>(unbound[i])];
    if (lo <= b && b < hi && Contains(begin, end, b)) --count;
  }
  return count;
}

void Enumerator::AddLeafMatches(int u, uint64_t count) {
  stats_.mat_counts[static_cast<size_t>(u)] += count;
  stats_.num_partial_results += count;
  stats_.num_matches += count;
}

void Enumerator::RunPartitionLeaf() {
  const std::vector<int>& tail = plan_.leaf.tail;
  const size_t k = tail.size();
  // S(t): C(t) cut to t's window, per tail position.
  std::array<VertexID, kMaxLeafTail> lo;
  std::array<VertexID, kMaxLeafTail> hi;
  std::array<std::span<const VertexID>, kMaxLeafTail> cut;
  for (size_t p = 0; p < k; ++p) {
    const size_t t = static_cast<size_t>(tail[p]);
    std::tie(lo[p], hi[p]) =
        Window(plan_.lower_bounds[t], plan_.upper_bounds[t]);
    const VertexID* begin = cand_data_[t];
    const VertexID* end = begin + cand_size_[t];
    if (lo[p] >= hi[p]) {
      end = begin;
    } else {
      if (lo[p] > 0) begin = CutFront(begin, end, lo[p]);
      if (hi[p] < graph_.NumVertices()) end = CutBack(begin, end, hi[p]);
    }
    cut[p] = {begin, end};
  }
  // Block 0 is {t1}; when S(t1) is empty no prefix has a binding.
  uint32_t empty = 0;
  for (size_t j = 0; j < leaf_blocks_.size(); ++j) {
    const LeafBlock& block = leaf_blocks_[j];
    uint64_t size = 0;
    if ((block.members & empty) == 0) {
      VertexID block_lo = 0;
      VertexID block_hi = graph_.NumVertices();
      for (size_t p = 0; p < k; ++p) {
        if (block.members >> p & 1u) {
          block_lo = std::max(block_lo, lo[p]);
          block_hi = std::min(block_hi, hi[p]);
        }
      }
      std::array<std::span<const VertexID>, kMaxLeafTail> sets;
      size_t num_sets = 0;
      for (const size_t p : block.sources) {
        const VertexID* begin = cut[p].data();
        const VertexID* end = begin + cut[p].size();
        if (block_lo > lo[p]) begin = CutFront(begin, end, block_lo);
        if (block_hi < hi[p]) end = CutBack(begin, end, block_hi);
        if (begin == end) {
          num_sets = 0;
          break;
        }
        sets[num_sets++] = {begin, end};
      }
      if (num_sets == 1) {
        size = CountUnbound(block.unbound, sets[0].data(),
                            sets[0].data() + sets[0].size(), block_lo,
                            block_hi);
      } else if (num_sets == 2 &&
                 std::min(sets[0].size(), sets[1].size()) <= 8) {
        // A few candidates: probe them into the other set, as the walk
        // would, instead of calling an intersection kernel.
        const bool first = sets[0].size() <= sets[1].size();
        const std::span<const VertexID> few = sets[first ? 0 : 1];
        const std::span<const VertexID> many = sets[first ? 1 : 0];
        for (const VertexID v : few) {
          if (!Contains(many.data(), many.data() + many.size(), v)) continue;
          bool bound = false;
          for (int x : block.unbound) {
            bound |= mapping_[static_cast<size_t>(x)] == v;
          }
          size += bound ? 0 : 1;
        }
      } else if (num_sets > 0) {
        std::array<SetView, kMaxLeafTail> views;
        for (size_t i = 0; i < num_sets; ++i) views[i] = SetView(sets[i]);
        size = CountIntersection(views.data(), num_sets, block_lo, block_hi,
                                 block.unbound, leaf_buffer_.data());
      }
    }
    if (size == 0) {
      if (j == 0) return;
      if (std::popcount(block.members) == 1) empty |= block.members;
    }
    leaf_sizes_[j] = size;
  }
  // Every prefix's sum is an exact count, so the wrapping unsigned
  // arithmetic returns it whenever it fits in 64 bits.
  for (size_t i = 0; i < k; ++i) {
    uint64_t extensions = 0;
    for (const LeafProduct& term : leaf_terms_[i]) {
      uint64_t product = term.coefficient;
      for (uint8_t b = 0; b < term.num_blocks; ++b) {
        product *= leaf_sizes_[term.blocks[b]];
      }
      extensions += product;
    }
    stats_.mat_counts[static_cast<size_t>(tail[i])] += extensions;
    stats_.num_partial_results += extensions;
    if (i + 1 == k) stats_.num_matches += extensions;
  }
}

void Enumerator::RunLeaf() {
  const std::vector<int>& tail = plan_.leaf.tail;
  const size_t k = tail.size();
  const int t1 = tail[0];
  const int b = plan_.leaf.b;
  if (!plan_.leaf.twins()) {
    ScopedOpSpan span(trace_root_, "MAT", t1);
    if (!CheckDeadline()) RunPartitionLeaf();
    return;
  }
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
    if (b >= 0) {
      closed = ScatterTwins(begin, end, &m);
    } else if (!CheckDeadline()) {
      m = CountUnbound(distinct_[static_cast<size_t>(t1)], begin, end, lo,
                       hi);
    }
  }
  if (stop_) return;
  // The twins bind, in chain order, to every i-subset of S: C(m, i) from
  // C(m, i - 1), exactly, with no division for the common k = 1.
  uint64_t extensions = m;
  for (size_t i = 1; i <= k; ++i) {
    if (i > 1) extensions = extensions * (m - (i - 1)) / i;
    stats_.mat_counts[static_cast<size_t>(tail[i - 1])] += extensions;
    stats_.num_partial_results += extensions;
  }
  if (b < 0) {
    stats_.num_matches += extensions;
  } else {
    AddLeafMatches(b, closed);
  }
}

uint64_t Enumerator::ScatterTwins(const VertexID* begin, const VertexID* end,
                                  uint64_t* m) {
  const size_t k = plan_.leaf.tail.size();
  const int b = plan_.leaf.b;
  const std::vector<int>& distinct =
      distinct_[static_cast<size_t>(plan_.leaf.tail[0])];
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
  for (const VertexID* it = begin; it != end && !stop_; ++it) {
    if (CheckDeadline()) return;
    try_vertex(*it);
  }
}

}  // namespace light
