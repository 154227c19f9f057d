#include "intersect/set_intersection.h"

#include <algorithm>
#include <cctype>
#include <vector>

#include "common/check.h"

namespace light {
namespace internal {

size_t MergeIntersect(const VertexID* a, size_t na, const VertexID* b,
                      size_t nb, VertexID* out) {
  size_t i = 0;
  size_t j = 0;
  size_t n = 0;
  while (i < na && j < nb) {
    const VertexID x = a[i];
    const VertexID y = b[j];
    if (x < y) {
      ++i;
    } else if (y < x) {
      ++j;
    } else {
      out[n++] = x;
      ++i;
      ++j;
    }
  }
  return n;
}

// First index in arr[start, n) whose value is >= key, found by exponential
// probing followed by binary search. The probe makes repeated lookups with
// ascending keys resume near the previous position (the "galloping" part).
size_t GallopLowerBound(const VertexID* arr, size_t n, size_t start,
                        VertexID key) {
  if (start >= n || arr[start] >= key) return start;
  size_t step = 1;
  size_t lo = start;
  while (lo + step < n && arr[lo + step] < key) {
    lo += step;
    step <<= 1;
  }
  const size_t hi = std::min(n, lo + step + 1);
  return static_cast<size_t>(
      std::lower_bound(arr + lo, arr + hi, key) - arr);
}

size_t GallopingIntersect(const VertexID* small, size_t nsmall,
                          const VertexID* large, size_t nlarge, VertexID* out) {
  size_t n = 0;
  size_t pos = 0;
  for (size_t i = 0; i < nsmall; ++i) {
    const VertexID x = small[i];
    pos = GallopLowerBound(large, nlarge, pos, x);
    if (pos == nlarge) break;
    if (large[pos] == x) {
      out[n++] = x;
      ++pos;
    }
  }
  return n;
}

size_t BinarySearchIntersect(const VertexID* small, size_t nsmall,
                             const VertexID* large, size_t nlarge,
                             VertexID* out) {
  size_t n = 0;
  for (size_t i = 0; i < nsmall; ++i) {
    if (std::binary_search(large, large + nlarge, small[i])) {
      out[n++] = small[i];
    }
  }
  return n;
}

}  // namespace internal

namespace {

bool RouteToGalloping(size_t na, size_t nb) {
  // Algorithm 4: Merge when |S1|/|S2| < delta and |S2|/|S1| < delta,
  // otherwise Galloping.
  const size_t lo = std::min(na, nb);
  const size_t hi = std::max(na, nb);
  if (lo == 0) return true;  // empty operand: constant-time either way
  return static_cast<double>(hi) >=
         kHybridSkewThreshold * static_cast<double>(lo);
}

size_t Dispatch(const VertexID* a, size_t na, const VertexID* b, size_t nb,
                VertexID* out, IntersectKernel kernel, IntersectStats* stats) {
  if (stats != nullptr) ++stats->num_intersections;
  switch (kernel) {
    case IntersectKernel::kMerge:
      if (stats != nullptr) ++stats->num_merge;
      return internal::MergeIntersect(a, na, b, nb, out);
    case IntersectKernel::kMergeAvx2:
      if (stats != nullptr) ++stats->num_merge;
#if defined(LIGHT_HAVE_AVX2)
      return internal::MergeIntersectAvx2(a, na, b, nb, out);
#else
      return internal::MergeIntersect(a, na, b, nb, out);
#endif
    case IntersectKernel::kGalloping:
      if (stats != nullptr) ++stats->num_galloping;
      if (na > nb) {
        std::swap(a, b);
        std::swap(na, nb);
      }
      return internal::GallopingIntersect(a, na, b, nb, out);
    case IntersectKernel::kBinarySearch:
      if (stats != nullptr) ++stats->num_binary_search;
      if (na > nb) {
        std::swap(a, b);
        std::swap(na, nb);
      }
      return internal::BinarySearchIntersect(a, na, b, nb, out);
    case IntersectKernel::kHybrid:
      if (RouteToGalloping(na, nb)) {
        if (stats != nullptr) ++stats->num_galloping;
        if (na > nb) {
          std::swap(a, b);
          std::swap(na, nb);
        }
        return internal::GallopingIntersect(a, na, b, nb, out);
      }
      if (stats != nullptr) ++stats->num_merge;
      return internal::MergeIntersect(a, na, b, nb, out);
    case IntersectKernel::kHybridAvx2:
      if (RouteToGalloping(na, nb)) {
        if (stats != nullptr) ++stats->num_galloping;
        if (na > nb) {
          std::swap(a, b);
          std::swap(na, nb);
        }
#if defined(LIGHT_HAVE_AVX2)
        return internal::GallopingIntersectAvx2(a, na, b, nb, out);
#else
        return internal::GallopingIntersect(a, na, b, nb, out);
#endif
      }
      if (stats != nullptr) ++stats->num_merge;
#if defined(LIGHT_HAVE_AVX2)
      return internal::MergeIntersectAvx2(a, na, b, nb, out);
#else
      return internal::MergeIntersect(a, na, b, nb, out);
#endif
  }
  LIGHT_CHECK(false);
  return 0;
}

}  // namespace

size_t IntersectSorted(std::span<const VertexID> a, std::span<const VertexID> b,
                       VertexID* out, IntersectKernel kernel,
                       IntersectStats* stats) {
  return Dispatch(a.data(), a.size(), b.data(), b.size(), out, kernel, stats);
}

size_t IntersectSortedCount(std::span<const VertexID> a,
                            std::span<const VertexID> b, IntersectKernel kernel,
                            IntersectStats* stats) {
  // Counting reuses the materializing kernels, writing into a per-thread
  // scratch buffer grown to the largest result seen. The engine always
  // materializes, so only tools and benches take this path.
  thread_local std::vector<VertexID> scratch;
  const size_t cap = std::min(a.size(), b.size());
  if (scratch.size() < cap) scratch.resize(cap);
  return Dispatch(a.data(), a.size(), b.data(), b.size(), scratch.data(),
                  kernel, stats);
}

bool KernelAvailable(IntersectKernel kernel) {
  // Both compile-time presence and runtime CPU support are required; callers
  // must consult this before selecting a SIMD kernel on unknown hardware.
  switch (kernel) {
    case IntersectKernel::kMergeAvx2:
    case IntersectKernel::kHybridAvx2:
#if defined(LIGHT_HAVE_AVX2)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    default:
      return true;
  }
}

IntersectKernel BestAvailableKernel() {
  if (KernelAvailable(IntersectKernel::kHybridAvx2)) {
    return IntersectKernel::kHybridAvx2;
  }
  return IntersectKernel::kHybrid;
}

std::string KernelName(IntersectKernel kernel) {
  switch (kernel) {
    case IntersectKernel::kMerge:
      return "Merge";
    case IntersectKernel::kMergeAvx2:
      return "MergeAVX2";
    case IntersectKernel::kGalloping:
      return "Galloping";
    case IntersectKernel::kBinarySearch:
      return "BinarySearch";
    case IntersectKernel::kHybrid:
      return "Hybrid";
    case IntersectKernel::kHybridAvx2:
      return "HybridAVX2";
  }
  return "Unknown";
}

std::optional<IntersectKernel> KernelFromName(std::string_view name) {
  const auto fold = [](std::string_view text) {
    std::string folded;
    for (const char c : text) {
      if (c != '_') {
        folded.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
      }
    }
    return folded;
  };
  const std::string key = fold(name);
  for (const IntersectKernel k : kAllKernels) {
    if (fold(KernelName(k)) == key) return k;
  }
  return std::nullopt;
}

}  // namespace light
