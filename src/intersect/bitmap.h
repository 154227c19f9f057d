#ifndef LIGHT_INTERSECT_BITMAP_H_
#define LIGHT_INTERSECT_BITMAP_H_

/// Bitmap set representation and kernels for the hybrid candidate-set
/// pipeline. A bitmap here is a fixed-universe bit vector — one bit per data
/// vertex, packed into 64-bit words — so intersecting two dense
/// neighborhoods degenerates to a word-wise AND: O(|V|/64) independent of
/// the operand cardinalities, where the sorted-array kernels of Algorithm 4
/// are memory-bound on both operands. Sparse-vs-dense intersections use the
/// probe kernel instead: each element of the small sorted array is tested
/// against the dense side's bitmap in O(1).
///
/// The hybrid representation keeps the sorted array authoritative (the
/// engine's size ordering and symmetry-breaking windows need it) and treats
/// the bitmap as an optional accelerator attached to graph neighborhoods by
/// graph/bitmap_index.h. ChooseIntersectRoute is the cost model that picks
/// between the array kernels (merge/galloping/binary-search, Algorithm 4)
/// and the bitmap kernels per operand shape.

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/types.h"
#include "intersect/set_intersection.h"

namespace light {

inline constexpr size_t kBitmapWordBits = 64;

/// Words needed for a universe of `universe` vertices.
inline size_t BitmapWords(VertexID universe) {
  return (static_cast<size_t>(universe) + kBitmapWordBits - 1) /
         kBitmapWordBits;
}

/// Membership test; v must be inside the universe the bitmap was built for.
inline bool BitmapTest(const uint64_t* bits, VertexID v) {
  return ((bits[v >> 6] >> (v & 63u)) & 1u) != 0;
}

/// One candidate-set operand in the hybrid representation. The sorted array
/// is always present; `bits` optionally points at a fixed-universe bitmap of
/// the same set (BitmapWords(|V|) words, e.g. a BitmapIndex row). A null
/// `bits` means array-only.
struct SetView {
  std::span<const VertexID> sorted;
  const uint64_t* bits = nullptr;

  SetView() = default;
  explicit SetView(std::span<const VertexID> s, const uint64_t* b = nullptr)
      : sorted(s), bits(b) {}

  size_t size() const { return sorted.size(); }
  bool has_bits() const { return bits != nullptr; }
};

/// Kernel family chosen for one pairwise intersection.
enum class IntersectRoute {
  kArray,         // sorted-array kernels (Algorithm 4 routing applies)
  kBitmapAnd,     // word-wise AND of two bitmaps, then decode
  kBitmapProbeA,  // probe a's sorted array through b's bitmap
  kBitmapProbeB,  // probe b's sorted array through a's bitmap
};

/// Cost-model constants, in units of "one merge step" (one element streamed
/// by the two-pointer merge). One AND-ed word costs a load/and/store plus an
/// amortized share of the decode; one probe costs a random access into the
/// bitmap. Validated by bench_bitmap.
inline constexpr size_t kBitmapAndWordCost = 4;
inline constexpr size_t kBitmapProbeCost = 2;

/// Routes one pairwise intersection given the operand cardinalities, which
/// operands carry bitmaps, and the universe width in words (pass 0 when no
/// word scratch is available — forces kArray). Empty operands route to the
/// array kernels (constant time either way).
inline IntersectRoute ChooseIntersectRoute(size_t na, bool a_bits, size_t nb,
                                           bool b_bits, size_t words) {
  if (na == 0 || nb == 0 || words == 0) return IntersectRoute::kArray;
  if (a_bits && b_bits && kBitmapAndWordCost * words <= na + nb) {
    return IntersectRoute::kBitmapAnd;
  }
  // Probe the strictly smaller array through the other side's bitmap when
  // that beats streaming both arrays (merge is na + nb; galloping only wins
  // above the delta=50 skew where the probe wins even harder).
  if (b_bits && kBitmapProbeCost * na < na + nb) return IntersectRoute::kBitmapProbeA;
  if (a_bits && kBitmapProbeCost * nb < na + nb) return IntersectRoute::kBitmapProbeB;
  return IntersectRoute::kArray;
}

/// Pairwise hybrid intersection: routes to the bitmap kernels per
/// ChooseIntersectRoute, falling back to IntersectSorted(kernel) otherwise.
/// `out` needs capacity min(na, nb) and must not alias either input's array;
/// `word_scratch` needs `words` words (pass nullptr/0 to disable bitmap
/// routing). Updates stats if non-null.
size_t IntersectHybridPair(const SetView& a, const SetView& b, VertexID* out,
                           uint64_t* word_scratch, size_t words,
                           IntersectKernel kernel,
                           IntersectStats* stats = nullptr);

/// Count-only pairwise hybrid intersection of operands whose arrays are cut
/// to one ID window while their rows stay whole (the engine's counted leaf):
/// the probe routes count array elements whose bit is set; a pair the cost
/// model would AND probes its smaller array instead, since the AND of whole
/// rows would also count outside the window; otherwise
/// IntersectSortedCount(kernel). `words` is the row width (0 = arrays only).
size_t CountHybridPair(const SetView& a, const SetView& b, size_t words,
                       IntersectKernel kernel,
                       IntersectStats* stats = nullptr);

namespace internal {

/// out[w] = a[w] & b[w] for w in [0, words). out may alias a or b. Picks the
/// AVX2 path at runtime when built with it.
void AndWords(const uint64_t* a, const uint64_t* b, size_t words,
              uint64_t* out);

/// Single-pass AND of k >= 1 rows into out (out must not alias any row).
void AndRows(const uint64_t* const* rows, size_t k, size_t words,
             uint64_t* out);

/// Decodes the set bits of bits[0, words) into ascending vertex IDs.
/// Returns the number written.
size_t DecodeBitmap(const uint64_t* bits, size_t words, VertexID* out);

/// Writes the elements of arr[0, n) whose bit is set in `bits` to out,
/// preserving order. out == arr (in-place compaction) is allowed.
size_t ProbeBitmap(const VertexID* arr, size_t n, const uint64_t* bits,
                   VertexID* out);

#if defined(LIGHT_HAVE_AVX2)
void AndWordsAvx2(const uint64_t* a, const uint64_t* b, size_t words,
                  uint64_t* out);
#endif

}  // namespace internal

}  // namespace light

#endif  // LIGHT_INTERSECT_BITMAP_H_
