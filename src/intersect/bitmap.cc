#include "intersect/bitmap.h"

#include <bit>

#include "common/check.h"

namespace light {
namespace internal {

namespace {

void AndWordsScalar(const uint64_t* a, const uint64_t* b, size_t words,
                    uint64_t* out) {
  for (size_t w = 0; w < words; ++w) out[w] = a[w] & b[w];
}

#if defined(LIGHT_HAVE_AVX2)
bool HaveAvx2() {
  static const bool have = __builtin_cpu_supports("avx2");
  return have;
}
#endif

}  // namespace

void AndWords(const uint64_t* a, const uint64_t* b, size_t words,
              uint64_t* out) {
#if defined(LIGHT_HAVE_AVX2)
  if (HaveAvx2()) {
    AndWordsAvx2(a, b, words, out);
    return;
  }
#endif
  AndWordsScalar(a, b, words, out);
}

void AndRows(const uint64_t* const* rows, size_t k, size_t words,
             uint64_t* out) {
  LIGHT_CHECK(k >= 1);
  if (k == 1) {
    for (size_t w = 0; w < words; ++w) out[w] = rows[0][w];
    return;
  }
  AndWords(rows[0], rows[1], words, out);
  for (size_t i = 2; i < k; ++i) AndWords(out, rows[i], words, out);
}

size_t DecodeBitmap(const uint64_t* bits, size_t words, VertexID* out) {
  size_t n = 0;
  for (size_t w = 0; w < words; ++w) {
    uint64_t word = bits[w];
    const VertexID base = static_cast<VertexID>(w * kBitmapWordBits);
    while (word != 0) {
      const int bit = std::countr_zero(word);
      out[n++] = base + static_cast<VertexID>(bit);
      word &= word - 1;
    }
  }
  return n;
}

size_t ProbeBitmap(const VertexID* arr, size_t n, const uint64_t* bits,
                   VertexID* out) {
  size_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    const VertexID v = arr[i];
    out[m] = v;
    m += BitmapTest(bits, v) ? 1 : 0;
  }
  return m;
}

}  // namespace internal

size_t IntersectHybridPair(const SetView& a, const SetView& b, VertexID* out,
                           uint64_t* word_scratch, size_t words,
                           IntersectKernel kernel, IntersectStats* stats) {
  const size_t effective_words = word_scratch == nullptr ? 0 : words;
  const IntersectRoute route = ChooseIntersectRoute(
      a.size(), a.has_bits(), b.size(), b.has_bits(), effective_words);
  if (route != IntersectRoute::kArray && stats != nullptr) {
    ++stats->num_intersections;
    stats->elements += a.size() + b.size();
    ++(route == IntersectRoute::kBitmapAnd ? stats->num_bitmap_and
                                           : stats->num_bitmap_probe);
  }
  switch (route) {
    case IntersectRoute::kBitmapAnd:
      internal::AndWords(a.bits, b.bits, words, word_scratch);
      return internal::DecodeBitmap(word_scratch, words, out);
    case IntersectRoute::kBitmapProbeA:
      return internal::ProbeBitmap(a.sorted.data(), a.size(), b.bits, out);
    case IntersectRoute::kBitmapProbeB:
      return internal::ProbeBitmap(b.sorted.data(), b.size(), a.bits, out);
    case IntersectRoute::kArray:
      break;
  }
  return IntersectSorted(a.sorted, b.sorted, out, kernel, stats);
}

size_t CountHybridPair(const SetView& a, const SetView& b, size_t words,
                       IntersectKernel kernel, IntersectStats* stats) {
  IntersectRoute route = ChooseIntersectRoute(a.size(), a.has_bits(), b.size(),
                                              b.has_bits(), words);
  if (route == IntersectRoute::kBitmapAnd) {
    // Whole rows would count outside the arrays' window: probe instead.
    route = a.size() <= b.size() ? IntersectRoute::kBitmapProbeA
                                 : IntersectRoute::kBitmapProbeB;
  }
  if (route == IntersectRoute::kArray) {
    return IntersectSortedCount(a.sorted, b.sorted, kernel, stats);
  }
  if (stats != nullptr) {
    ++stats->num_intersections;
    ++stats->num_bitmap_probe;
    stats->elements += a.size() + b.size();
  }
  const bool probe_a = route == IntersectRoute::kBitmapProbeA;
  const std::span<const VertexID> arr = probe_a ? a.sorted : b.sorted;
  const uint64_t* bits = probe_a ? b.bits : a.bits;
  size_t n = 0;
  for (const VertexID v : arr) n += BitmapTest(bits, v) ? 1 : 0;
  return n;
}

}  // namespace light
