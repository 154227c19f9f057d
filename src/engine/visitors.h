#ifndef LIGHT_ENGINE_VISITORS_H_
#define LIGHT_ENGINE_VISITORS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace light {

/// Receives matches from the enumerator. mapping[u] is the data vertex bound
/// to pattern vertex u. The span is only valid during the call; copy it to
/// retain. Return false to stop the enumeration early.
///
/// Like the algorithms in the paper (Section VIII-A, "Metrics"), the engine
/// enumerates without storing results unless a visitor collects them.
class MatchVisitor {
 public:
  virtual ~MatchVisitor() = default;
  virtual bool OnMatch(std::span<const VertexID> mapping) = 0;
};

/// Accepts every match and keeps none. A run with it walks sigma to every
/// match instead of ending in the plan's count-only leaf, which makes it the
/// reference the leaf is checked and benchmarked against.
class WalkVisitor : public MatchVisitor {
 public:
  bool OnMatch(std::span<const VertexID>) override { return true; }
};

/// Collects up to `limit` matches (0 = unlimited). Used by tests, examples,
/// and the BSP join engine's unit materialization.
class CollectingVisitor : public MatchVisitor {
 public:
  explicit CollectingVisitor(size_t limit = 0) : limit_(limit) {}

  bool OnMatch(std::span<const VertexID> mapping) override {
    matches_.emplace_back(mapping.begin(), mapping.end());
    return limit_ == 0 || matches_.size() < limit_;
  }

  const std::vector<std::vector<VertexID>>& matches() const {
    return matches_;
  }
  std::vector<std::vector<VertexID>> TakeMatches() {
    return std::move(matches_);
  }

 private:
  size_t limit_;
  std::vector<std::vector<VertexID>> matches_;
};

/// Appends matches as flat tuples in a caller-chosen vertex order; feeds the
/// join engine's relations. Aborts (returns false) once `tuple_limit` tuples
/// were produced, which is how the BSP engine's space budget propagates into
/// unit enumeration.
class FlatTupleVisitor : public MatchVisitor {
 public:
  /// `projection` lists pattern vertices in output-column order.
  FlatTupleVisitor(std::vector<int> projection, uint64_t tuple_limit,
                   std::vector<VertexID>* out)
      : projection_(std::move(projection)),
        tuple_limit_(tuple_limit),
        out_(out) {}

  bool OnMatch(std::span<const VertexID> mapping) override {
    for (int u : projection_) out_->push_back(mapping[static_cast<size_t>(u)]);
    ++tuples_;
    return tuples_ < tuple_limit_;
  }

  uint64_t tuples() const { return tuples_; }
  bool hit_limit() const { return tuples_ >= tuple_limit_; }

 private:
  std::vector<int> projection_;
  uint64_t tuple_limit_;
  std::vector<VertexID>* out_;
  uint64_t tuples_ = 0;
};

}  // namespace light

#endif  // LIGHT_ENGINE_VISITORS_H_
