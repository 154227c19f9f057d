#ifndef LIGHT_INTERSECT_SET_INTERSECTION_H_
#define LIGHT_INTERSECT_SET_INTERSECTION_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/types.h"

namespace light {

/// Pairwise set-intersection methods over sorted uint32 arrays (Section
/// VII-A, Algorithm 4). The engine's candidate computation is built on these.
enum class IntersectKernel {
  kMerge,         // two-pointer merge, O(|S1| + |S2|)
  kMergeAvx2,     // block merge with AVX2 all-pairs compare
  kGalloping,     // per-element exponential + binary search,
                  // O(|S1| log |S2|) with |S1| <= |S2|
  kBinarySearch,  // plain per-element binary search (the CFL-style method
                  // described in Section VIII-B1)
  kHybrid,        // Algorithm 4: Merge unless the size ratio exceeds delta
  kHybridAvx2,    // Algorithm 4 over the AVX2 kernels
};

/// Every kernel, in enum order. Filter with KernelAvailable() before running
/// one on unknown hardware.
inline constexpr IntersectKernel kAllKernels[] = {
    IntersectKernel::kMerge,        IntersectKernel::kMergeAvx2,
    IntersectKernel::kGalloping,    IntersectKernel::kBinarySearch,
    IntersectKernel::kHybrid,       IntersectKernel::kHybridAvx2,
};

/// delta of Algorithm 4: Galloping is chosen when the size ratio of the two
/// operands is at least this value. The paper configures 50 following the
/// performance study of Lemire et al. [14].
inline constexpr double kHybridSkewThreshold = 50.0;

/// Counters behind Figure 5 (number of set intersections) and Table III
/// (percentage of Galloping searches; extended with the bitmap routes of the
/// hybrid representation). Kept per worker, merged at the end.
struct IntersectStats {
  uint64_t num_intersections = 0;   // pairwise intersection calls
  uint64_t num_galloping = 0;       // calls routed to Galloping
  uint64_t num_merge = 0;           // calls routed to Merge
  uint64_t num_binary_search = 0;   // calls routed to BinarySearch (CFL-style)
  uint64_t num_bitmap_and = 0;      // calls routed to bitmap AND + decode
  uint64_t num_bitmap_probe = 0;    // calls routed to array-through-bitmap

  void Add(const IntersectStats& other) {
    num_intersections += other.num_intersections;
    num_galloping += other.num_galloping;
    num_merge += other.num_merge;
    num_binary_search += other.num_binary_search;
    num_bitmap_and += other.num_bitmap_and;
    num_bitmap_probe += other.num_bitmap_probe;
  }
  double GallopingFraction() const {
    return num_intersections == 0
               ? 0.0
               : static_cast<double>(num_galloping) /
                     static_cast<double>(num_intersections);
  }
  double BitmapFraction() const {
    return num_intersections == 0
               ? 0.0
               : static_cast<double>(num_bitmap_and + num_bitmap_probe) /
                     static_cast<double>(num_intersections);
  }
};

/// Intersects sorted sets a and b into out (capacity >= min(|a|, |b|)),
/// returning the result size. `out` must not alias either input. Updates
/// stats if non-null. Falls back to scalar kernels when AVX2 was not built.
size_t IntersectSorted(std::span<const VertexID> a, std::span<const VertexID> b,
                       VertexID* out, IntersectKernel kernel,
                       IntersectStats* stats = nullptr);

/// Result-size-only variant: same routing and stats accounting, with the
/// matches written to a thread-local scratch buffer instead of the caller's.
size_t IntersectSortedCount(std::span<const VertexID> a,
                            std::span<const VertexID> b,
                            IntersectKernel kernel,
                            IntersectStats* stats = nullptr);

/// True if kernel needs AVX2 and this build has it (or doesn't need it).
bool KernelAvailable(IntersectKernel kernel);

/// Best hybrid kernel available in this build/CPU: HybridAVX2 > Hybrid.
IntersectKernel BestAvailableKernel();

/// Human-readable kernel name ("Merge", "HybridAVX2", ...), matching the
/// labels of Figure 6.
std::string KernelName(IntersectKernel kernel);

/// Inverse of KernelName(). Matches case-insensitively and ignores '_', so
/// the CLI spelling "merge_avx2" and the report spelling "MergeAVX2" both
/// parse. nullopt for a name no kernel has.
std::optional<IntersectKernel> KernelFromName(std::string_view name);

namespace internal {

// Scalar kernels, exposed for unit testing. All require sorted inputs.
size_t MergeIntersect(const VertexID* a, size_t na, const VertexID* b,
                      size_t nb, VertexID* out);
// First index in arr[start, n) whose value is >= key (exponential probe +
// binary search); the search primitive behind GallopingIntersect. start may
// be >= n, in which case start is returned unchanged.
size_t GallopLowerBound(const VertexID* arr, size_t n, size_t start,
                        VertexID key);
size_t GallopingIntersect(const VertexID* small, size_t nsmall,
                          const VertexID* large, size_t nlarge, VertexID* out);
size_t BinarySearchIntersect(const VertexID* small, size_t nsmall,
                             const VertexID* large, size_t nlarge,
                             VertexID* out);

#if defined(LIGHT_HAVE_AVX2)
size_t MergeIntersectAvx2(const VertexID* a, size_t na, const VertexID* b,
                          size_t nb, VertexID* out);
size_t GallopingIntersectAvx2(const VertexID* small, size_t nsmall,
                              const VertexID* large, size_t nlarge,
                              VertexID* out);
#endif

}  // namespace internal

}  // namespace light

#endif  // LIGHT_INTERSECT_SET_INTERSECTION_H_
