#include "intersect/multiway.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/check.h"
#include "common/types.h"

namespace light {

size_t IntersectMultiway(std::span<const std::span<const VertexID>> sets,
                         VertexID* out, VertexID* scratch,
                         IntersectKernel kernel, IntersectStats* stats) {
  const size_t k = sets.size();
  LIGHT_CHECK(k >= 1);
  LIGHT_CHECK(k <= kMaxPatternVertices);

  if (k == 1) {
    // memmove, not memcpy: callers may pass out == sets[0].data() (copying a
    // set "into place"), and an empty span may carry a null data pointer —
    // both UB with memcpy's no-overlap/non-null contract.
    if (!sets[0].empty() && out != sets[0].data()) {
      std::memmove(out, sets[0].data(), sets[0].size() * sizeof(VertexID));
    }
    return sets[0].size();
  }

  // Order operands ascending by size (min property).
  std::array<uint32_t, kMaxPatternVertices> order;
  for (size_t i = 0; i < k; ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.begin() + static_cast<ptrdiff_t>(k),
            [&](uint32_t a, uint32_t b) {
              return sets[a].size() < sets[b].size();
            });

  // Ping-pong between scratch and out so the final intersection lands in
  // out: with r = k - 1 pairwise steps, start in `out` when r is odd.
  VertexID* bufs[2] = {scratch, out};
  int cur = (k - 1) % 2 == 1 ? 1 : 0;

  size_t size = IntersectSorted(sets[order[0]], sets[order[1]], bufs[cur],
                                kernel, stats);
  for (size_t i = 2; i < k; ++i) {
    if (size == 0) break;
    const int next = cur ^ 1;
    size = IntersectSorted({bufs[cur], size}, sets[order[i]], bufs[next],
                           kernel, stats);
    cur = next;
  }
  if (bufs[cur] != out) {
    std::memcpy(out, bufs[cur], size * sizeof(VertexID));
  }
  return size;
}

size_t IntersectMultiwayHybrid(std::span<const SetView> sets, VertexID* out,
                               VertexID* scratch, uint64_t* word_scratch,
                               size_t words, IntersectKernel kernel,
                               IntersectStats* stats) {
  const size_t k = sets.size();
  LIGHT_CHECK(k >= 1);
  LIGHT_CHECK(k <= kMaxPatternVertices);

  if (k == 1) {
    // Same copy semantics as IntersectMultiway (out may alias or be null for
    // an empty set); a single operand is no intersection.
    const std::span<const VertexID> s = sets[0].sorted;
    if (!s.empty() && out != s.data()) {
      std::memmove(out, s.data(), s.size() * sizeof(VertexID));
    }
    return s.size();
  }

  const size_t effective_words = word_scratch == nullptr ? 0 : words;

  // Order operands ascending by size (min property).
  std::array<uint32_t, kMaxPatternVertices> order;
  for (size_t i = 0; i < k; ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.begin() + static_cast<ptrdiff_t>(k),
            [&](uint32_t a, uint32_t b) {
              return sets[a].size() < sets[b].size();
            });

  // All-bitmap fast path: when every operand carries a bitmap and the AND
  // wins the cost model already for the two smallest operands, collapse the
  // whole chain into one multi-row word-AND and a single decode.
  bool all_bits = true;
  for (size_t i = 0; i < k; ++i) all_bits &= sets[i].has_bits();
  if (all_bits &&
      ChooseIntersectRoute(sets[order[0]].size(), true, sets[order[1]].size(),
                           true, effective_words) ==
          IntersectRoute::kBitmapAnd) {
    std::array<const uint64_t*, kMaxPatternVertices> rows;
    for (size_t i = 0; i < k; ++i) rows[i] = sets[i].bits;
    internal::AndRows(rows.data(), k, words, word_scratch);
    if (stats != nullptr) {
      // One pairwise intersection per AND step, matching Equation 7's
      // |K1| + |K2| - 1 accounting for the chained form.
      stats->num_intersections += k - 1;
      stats->num_bitmap_and += k - 1;
      for (size_t i = 0; i < k; ++i) stats->elements += sets[i].size();
    }
    return internal::DecodeBitmap(word_scratch, words, out);
  }

  // Pairwise chain with ping-pong buffers. Intermediates are array-only
  // (their bitmaps are not materialized), but each step can still probe the
  // intermediate through the next operand's bitmap.
  VertexID* bufs[2] = {scratch, out};
  int cur = (k - 1) % 2 == 1 ? 1 : 0;

  size_t size =
      IntersectHybridPair(sets[order[0]], sets[order[1]], bufs[cur],
                          word_scratch, effective_words, kernel, stats);
  for (size_t i = 2; i < k; ++i) {
    if (size == 0) break;
    const int next = cur ^ 1;
    size = IntersectHybridPair(SetView({bufs[cur], size}), sets[order[i]],
                               bufs[next], word_scratch, effective_words,
                               kernel, stats);
    cur = next;
  }
  if (bufs[cur] != out) {
    std::memcpy(out, bufs[cur], size * sizeof(VertexID));
  }
  return size;
}

}  // namespace light
