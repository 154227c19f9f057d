#include "intersect/set_intersection.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "common/check.h"

namespace light {
namespace internal {
namespace {

// Each scalar kernel is written once and instantiated twice: kStore writes
// the matches to `out`, !kStore only counts them (`out` is never touched).

template <bool kStore>
size_t Merge(const VertexID* a, size_t na, const VertexID* b, size_t nb,
             VertexID* out) {
  // Branchless two-pointer merge. The speculative store is safe: n <= i < na
  // and n <= j < nb inside the loop, so out[n] is within min(na, nb).
  size_t i = 0;
  size_t j = 0;
  size_t n = 0;
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
size_t Galloping(const VertexID* small, size_t nsmall, const VertexID* large,
                 size_t nlarge, VertexID* out) {
  size_t n = 0;
  size_t pos = 0;
  for (size_t i = 0; i < nsmall; ++i) {
    const VertexID x = small[i];
    pos = GallopLowerBound(large, nlarge, pos, x);
    if (pos == nlarge) break;
    if (large[pos] == x) {
      if constexpr (kStore) out[n] = x;
      ++n;
      ++pos;
    }
  }
  return n;
}

template <bool kStore>
size_t BinarySearch(const VertexID* small, size_t nsmall,
                    const VertexID* large, size_t nlarge, VertexID* out) {
  size_t n = 0;
  for (size_t i = 0; i < nsmall; ++i) {
    if (std::binary_search(large, large + nlarge, small[i])) {
      if constexpr (kStore) out[n] = small[i];
      ++n;
    }
  }
  return n;
}

}  // namespace

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

size_t MergeIntersect(const VertexID* a, size_t na, const VertexID* b,
                      size_t nb, VertexID* out) {
  return Merge<true>(a, na, b, nb, out);
}

size_t MergeIntersectCount(const VertexID* a, size_t na, const VertexID* b,
                           size_t nb) {
  return Merge<false>(a, na, b, nb, nullptr);
}

size_t GallopingIntersect(const VertexID* small, size_t nsmall,
                          const VertexID* large, size_t nlarge, VertexID* out) {
  return Galloping<true>(small, nsmall, large, nlarge, out);
}

size_t GallopingIntersectCount(const VertexID* small, size_t nsmall,
                               const VertexID* large, size_t nlarge) {
  return Galloping<false>(small, nsmall, large, nlarge, nullptr);
}

size_t BinarySearchIntersect(const VertexID* small, size_t nsmall,
                             const VertexID* large, size_t nlarge,
                             VertexID* out) {
  return BinarySearch<true>(small, nsmall, large, nlarge, out);
}

size_t BinarySearchIntersectCount(const VertexID* small, size_t nsmall,
                                  const VertexID* large, size_t nlarge) {
  return BinarySearch<false>(small, nsmall, large, nlarge, nullptr);
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

// The kernels of one output mode: kStore materializes into `out`, !kStore
// runs the count-only forms (`out` unused).
template <bool kStore>
struct Kernels {
  static size_t Merge(const VertexID* a, size_t na, const VertexID* b,
                      size_t nb, VertexID* out) {
    if constexpr (kStore) {
      return internal::MergeIntersect(a, na, b, nb, out);
    } else {
      return internal::MergeIntersectCount(a, na, b, nb);
    }
  }
  static size_t MergeAvx2(const VertexID* a, size_t na, const VertexID* b,
                          size_t nb, VertexID* out) {
#if defined(LIGHT_HAVE_AVX2)
    if constexpr (kStore) {
      return internal::MergeIntersectAvx2(a, na, b, nb, out);
    } else {
      return internal::MergeIntersectCountAvx2(a, na, b, nb);
    }
#else
    return Merge(a, na, b, nb, out);
#endif
  }
  static size_t Galloping(const VertexID* s, size_t ns, const VertexID* l,
                          size_t nl, VertexID* out) {
    if constexpr (kStore) {
      return internal::GallopingIntersect(s, ns, l, nl, out);
    } else {
      return internal::GallopingIntersectCount(s, ns, l, nl);
    }
  }
  static size_t GallopingAvx2(const VertexID* s, size_t ns, const VertexID* l,
                              size_t nl, VertexID* out) {
#if defined(LIGHT_HAVE_AVX2)
    if constexpr (kStore) {
      return internal::GallopingIntersectAvx2(s, ns, l, nl, out);
    } else {
      return internal::GallopingIntersectCountAvx2(s, ns, l, nl);
    }
#else
    return Galloping(s, ns, l, nl, out);
#endif
  }
  static size_t BinarySearch(const VertexID* s, size_t ns, const VertexID* l,
                             size_t nl, VertexID* out) {
    if constexpr (kStore) {
      return internal::BinarySearchIntersect(s, ns, l, nl, out);
    } else {
      return internal::BinarySearchIntersectCount(s, ns, l, nl);
    }
  }
};

template <bool kStore>
size_t Dispatch(const VertexID* a, size_t na, const VertexID* b, size_t nb,
                VertexID* out, IntersectKernel kernel, IntersectStats* stats) {
  using K = Kernels<kStore>;
  if (stats != nullptr) {
    ++stats->num_intersections;
    stats->elements += na + nb;
  }
  // The skewed kernels take the smaller operand first.
  const auto smaller_first = [&] {
    if (na > nb) {
      std::swap(a, b);
      std::swap(na, nb);
    }
  };
  switch (kernel) {
    case IntersectKernel::kMerge:
      if (stats != nullptr) ++stats->num_merge;
      return K::Merge(a, na, b, nb, out);
    case IntersectKernel::kMergeAvx2:
      if (stats != nullptr) ++stats->num_merge;
      return K::MergeAvx2(a, na, b, nb, out);
    case IntersectKernel::kGalloping:
      if (stats != nullptr) ++stats->num_galloping;
      smaller_first();
      return K::Galloping(a, na, b, nb, out);
    case IntersectKernel::kBinarySearch:
      if (stats != nullptr) ++stats->num_binary_search;
      smaller_first();
      return K::BinarySearch(a, na, b, nb, out);
    case IntersectKernel::kHybrid:
      if (RouteToGalloping(na, nb)) {
        if (stats != nullptr) ++stats->num_galloping;
        smaller_first();
        return K::Galloping(a, na, b, nb, out);
      }
      if (stats != nullptr) ++stats->num_merge;
      return K::Merge(a, na, b, nb, out);
    case IntersectKernel::kHybridAvx2:
      if (RouteToGalloping(na, nb)) {
        if (stats != nullptr) ++stats->num_galloping;
        smaller_first();
        return K::GallopingAvx2(a, na, b, nb, out);
      }
      if (stats != nullptr) ++stats->num_merge;
      return K::MergeAvx2(a, na, b, nb, out);
  }
  LIGHT_CHECK(false);
  return 0;
}

}  // namespace

size_t IntersectSorted(std::span<const VertexID> a, std::span<const VertexID> b,
                       VertexID* out, IntersectKernel kernel,
                       IntersectStats* stats) {
  return Dispatch<true>(a.data(), a.size(), b.data(), b.size(), out, kernel,
                        stats);
}

size_t IntersectSortedCount(std::span<const VertexID> a,
                            std::span<const VertexID> b, IntersectKernel kernel,
                            IntersectStats* stats) {
  return Dispatch<false>(a.data(), a.size(), b.data(), b.size(), nullptr,
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
