// AVX2 implementations of the Merge and Galloping intersection kernels
// (Section VII-A). Compiled with -mavx2; the dispatcher in
// set_intersection.cc only calls these when LIGHT_HAVE_AVX2 is defined.

#include <immintrin.h>

#include <algorithm>
#include <array>

#include "intersect/set_intersection.h"

namespace light::internal {
namespace {

// shuffle_table[mask] moves the lanes selected by `mask` (8-bit, one bit per
// 32-bit lane) to the front, for compress-stores after an all-pairs compare.
struct ShuffleTable {
  alignas(32) int32_t idx[256][8];
};

const ShuffleTable* BuildShuffleTable() {
  static ShuffleTable table;
  for (int mask = 0; mask < 256; ++mask) {
    int n = 0;
    for (int lane = 0; lane < 8; ++lane) {
      if ((mask >> lane) & 1) table.idx[mask][n++] = lane;
    }
    for (; n < 8; ++n) table.idx[mask][n] = 0;
  }
  return &table;
}

const ShuffleTable& GetShuffleTable() {
  static const ShuffleTable* table = BuildShuffleTable();
  return *table;
}

// OR of the equality comparisons of a_vec against all 8 rotations of b_vec:
// lane i of the result is all-ones iff a_vec[i] occurs anywhere in b_vec.
inline __m256i AllPairsEq(__m256i a_vec, __m256i b_vec) {
  __m256i match = _mm256_cmpeq_epi32(a_vec, b_vec);
  __m256i rotated = b_vec;
  for (int r = 1; r < 8; ++r) {
    // Rotate lanes left by one.
    rotated = _mm256_permutevar8x32_epi32(
        rotated, _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0));
    match = _mm256_or_si256(match, _mm256_cmpeq_epi32(a_vec, rotated));
  }
  return match;
}

// Block merge, written once for both output modes: kStore compress-stores
// the matches into `out`, !kStore only counts them.
template <bool kStore>
size_t MergeAvx2(const VertexID* a, size_t na, const VertexID* b, size_t nb,
                 VertexID* out) {
  // The 8-lane compress-store writes past the matches it keeps; near the
  // end of `out` (capacity min(na, nb)) the kept lanes are copied singly.
  const size_t cap = std::min(na, nb);
  const ShuffleTable* table = kStore ? &GetShuffleTable() : nullptr;
  size_t i = 0;
  size_t j = 0;
  size_t n = 0;
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i a_vec =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i b_vec =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const int mask = _mm256_movemask_ps(
        _mm256_castsi256_ps(AllPairsEq(a_vec, b_vec)));
    const size_t hits =
        static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(mask)));
    if constexpr (kStore) {
      if (mask != 0) {
        const int32_t* lanes = table->idx[mask];
        if (n + 8 <= cap) {
          const __m256i perm =
              _mm256_load_si256(reinterpret_cast<const __m256i*>(lanes));
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + n),
                              _mm256_permutevar8x32_epi32(a_vec, perm));
        } else {
          for (size_t h = 0; h < hits; ++h) out[n + h] = a[i + lanes[h]];
        }
      }
    }
    n += hits;
    const VertexID a_max = a[i + 7];
    const VertexID b_max = b[j + 7];
    i += a_max <= b_max ? 8 : 0;
    j += b_max <= a_max ? 8 : 0;
  }
  // Scalar tail, branchless; the speculative store stays below min(na, nb).
  while (i < na && j < nb) {
    const VertexID x = a[i];
    const VertexID y = b[j];
    if constexpr (kStore) out[n] = x;
    n += x == y ? 1 : 0;
    i += x <= y ? 1 : 0;
    j += y <= x ? 1 : 0;
  }
  return n;
}

template <bool kStore>
size_t GallopingAvx2(const VertexID* small, size_t nsmall,
                     const VertexID* large, size_t nlarge, VertexID* out) {
  size_t n = 0;
  size_t pos = 0;
  for (size_t i = 0; i < nsmall; ++i) {
    const VertexID x = small[i];
    // Gallop over 8-lane blocks: advance while the block-window maximum
    // is < x.
    size_t step = 8;
    size_t lo = pos;
    while (lo + step < nlarge && large[lo + step - 1] < x) {
      lo += step;
      step <<= 1;
    }
    const size_t hi = std::min(nlarge, lo + step);
    // Binary search over the 8-lane blocks of [lo, hi) for the first block
    // whose maximum is >= x.
    const size_t nblocks = (hi - lo + 7) / 8;
    size_t a = 0;
    size_t b = nblocks;
    while (a < b) {
      const size_t m = (a + b) / 2;
      const size_t block_last = std::min(lo + m * 8 + 8, hi) - 1;
      if (large[block_last] < x) {
        a = m + 1;
      } else {
        b = m;
      }
    }
    if (a == nblocks) {
      // x exceeds every element of the window; if the window reached the end
      // of `large`, every later key does too.
      pos = hi;
      if (hi == nlarge) break;
      continue;
    }
    const size_t blk_lo = lo + a * 8;
    pos = blk_lo;
    bool found = false;
    if (blk_lo + 8 <= nlarge) {
      const __m256i key = _mm256_set1_epi32(static_cast<int>(x));
      const __m256i block =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(large + blk_lo));
      found = _mm256_movemask_ps(_mm256_castsi256_ps(
                  _mm256_cmpeq_epi32(key, block))) != 0;
    } else {
      for (size_t p = blk_lo; p < nlarge && large[p] <= x; ++p) {
        if (large[p] == x) {
          found = true;
          break;
        }
      }
    }
    if (found) {
      if constexpr (kStore) out[n] = x;
      ++n;
    }
  }
  return n;
}

}  // namespace

size_t MergeIntersectAvx2(const VertexID* a, size_t na, const VertexID* b,
                          size_t nb, VertexID* out) {
  return MergeAvx2<true>(a, na, b, nb, out);
}

size_t MergeIntersectCountAvx2(const VertexID* a, size_t na,
                               const VertexID* b, size_t nb) {
  return MergeAvx2<false>(a, na, b, nb, nullptr);
}

size_t GallopingIntersectAvx2(const VertexID* small, size_t nsmall,
                              const VertexID* large, size_t nlarge,
                              VertexID* out) {
  return GallopingAvx2<true>(small, nsmall, large, nlarge, out);
}

size_t GallopingIntersectCountAvx2(const VertexID* small, size_t nsmall,
                                   const VertexID* large, size_t nlarge) {
  return GallopingAvx2<false>(small, nsmall, large, nlarge, nullptr);
}

}  // namespace light::internal
