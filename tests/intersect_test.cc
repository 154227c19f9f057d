#include "intersect/set_intersection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "common/rng.h"
#include "intersect/multiway.h"

namespace light {
namespace {

std::vector<VertexID> RandomSortedSet(size_t size, VertexID universe,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexID> values;
  values.reserve(size * 2);
  while (values.size() < size * 2) {
    values.push_back(static_cast<VertexID>(rng.NextBounded(universe)));
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  if (values.size() > size) values.resize(size);
  return values;
}

std::vector<VertexID> ReferenceIntersect(const std::vector<VertexID>& a,
                                         const std::vector<VertexID>& b) {
  std::vector<VertexID> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<IntersectKernel> AllKernels() {
  std::vector<IntersectKernel> kernels;
  for (IntersectKernel k : kAllKernels) {
    if (KernelAvailable(k)) kernels.push_back(k);
  }
  return kernels;
}

class KernelTest : public ::testing::TestWithParam<IntersectKernel> {};

TEST_P(KernelTest, MatchesStdSetIntersection) {
  const IntersectKernel kernel = GetParam();
  struct Case {
    size_t na, nb;
    VertexID universe;
    uint64_t seed;
  };
  const Case cases[] = {
      {0, 0, 100, 1},      {0, 50, 100, 2},     {1, 1, 4, 3},
      {7, 7, 20, 4},       {8, 8, 30, 5},       {9, 33, 80, 6},
      {100, 100, 250, 7},  {100, 100, 5000, 8}, {3, 5000, 20000, 9},
      {64, 4096, 30000, 10}, {1000, 1000, 1500, 11}, {17, 900, 2500, 12},
  };
  for (const Case& c : cases) {
    const auto a = RandomSortedSet(c.na, c.universe, c.seed);
    const auto b = RandomSortedSet(c.nb, c.universe, c.seed + 1000);
    const auto expected = ReferenceIntersect(a, b);
    std::vector<VertexID> out(std::min(a.size(), b.size()) + 8, 0xDEADBEEF);
    const size_t n = IntersectSorted(a, b, out.data(), kernel);
    ASSERT_EQ(n, expected.size())
        << KernelName(kernel) << " na=" << a.size() << " nb=" << b.size();
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], expected[i]);
    // Symmetric call.
    const size_t n2 = IntersectSorted(b, a, out.data(), kernel);
    EXPECT_EQ(n2, expected.size());
  }
}

TEST_P(KernelTest, IdenticalSetsReturnThemselves) {
  const auto a = RandomSortedSet(500, 2000, 42);
  std::vector<VertexID> out(a.size());
  const size_t n = IntersectSorted(a, a, out.data(), GetParam());
  ASSERT_EQ(n, a.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), out.begin()));
}

TEST_P(KernelTest, DisjointSetsReturnEmpty) {
  std::vector<VertexID> a, b;
  for (VertexID i = 0; i < 100; ++i) {
    a.push_back(2 * i);
    b.push_back(2 * i + 1);
  }
  std::vector<VertexID> out(100);
  EXPECT_EQ(IntersectSorted(a, b, out.data(), GetParam()), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelTest,
                         ::testing::ValuesIn(AllKernels()),
                         [](const ::testing::TestParamInfo<IntersectKernel>& i) {
                           return KernelName(i.param);
                         });

TEST(HybridRoutingTest, SkewRoutesToGalloping) {
  IntersectStats stats;
  const auto small = RandomSortedSet(10, 100000, 1);
  const auto large = RandomSortedSet(10000, 100000, 2);
  std::vector<VertexID> out(small.size());
  IntersectSorted(small, large, out.data(), IntersectKernel::kHybrid, &stats);
  EXPECT_EQ(stats.num_galloping, 1u);
  EXPECT_EQ(stats.num_merge, 0u);
}

TEST(HybridRoutingTest, SimilarSizesRouteToMerge) {
  IntersectStats stats;
  const auto a = RandomSortedSet(1000, 100000, 1);
  const auto b = RandomSortedSet(1200, 100000, 2);
  std::vector<VertexID> out(1000);
  IntersectSorted(a, b, out.data(), IntersectKernel::kHybrid, &stats);
  EXPECT_EQ(stats.num_galloping, 0u);
  EXPECT_EQ(stats.num_merge, 1u);
}

TEST(HybridRoutingTest, ThresholdBoundary) {
  // Ratio exactly delta routes to Galloping (Algorithm 4 requires a strict
  // < comparison for Merge).
  std::vector<VertexID> small = {1, 2};
  std::vector<VertexID> large;
  for (VertexID i = 0; i < static_cast<VertexID>(2 * kHybridSkewThreshold);
       ++i) {
    large.push_back(i * 3);
  }
  IntersectStats stats;
  std::vector<VertexID> out(2);
  IntersectSorted(small, large, out.data(), IntersectKernel::kHybrid, &stats);
  EXPECT_EQ(stats.num_galloping, 1u);
}

TEST(HybridRoutingTest, BinarySearchCountsInItsOwnCounter) {
  // Regression: kBinarySearch used to increment num_merge, corrupting the
  // Table III style routing breakdown for CFL-like runs.
  IntersectStats stats;
  const auto a = RandomSortedSet(100, 1000, 1);
  const auto b = RandomSortedSet(100, 1000, 2);
  std::vector<VertexID> out(100);
  IntersectSorted(a, b, out.data(), IntersectKernel::kBinarySearch, &stats);
  EXPECT_EQ(stats.num_binary_search, 1u);
  EXPECT_EQ(stats.num_merge, 0u);
  EXPECT_EQ(stats.num_galloping, 0u);
  EXPECT_EQ(stats.num_intersections, 1u);

  IntersectStats merged;
  merged.Add(stats);
  merged.Add(stats);
  EXPECT_EQ(merged.num_binary_search, 2u);
}

TEST(GallopLowerBoundTest, EdgeCases) {
  const std::vector<VertexID> arr = {2, 4, 6, 8, 10};
  const VertexID* p = arr.data();
  const size_t n = arr.size();
  // start >= n returns start untouched (empty suffix), including on an
  // empty array.
  EXPECT_EQ(internal::GallopLowerBound(p, n, n, 5), n);
  EXPECT_EQ(internal::GallopLowerBound(p, n, n + 3, 5), n + 3);
  EXPECT_EQ(internal::GallopLowerBound(nullptr, 0, 0, 5), 0u);
  // Key below the first element: no probe needed.
  EXPECT_EQ(internal::GallopLowerBound(p, n, 0, 1), 0u);
  // Key past the end gallops off the array and stops at n.
  EXPECT_EQ(internal::GallopLowerBound(p, n, 0, 11), n);
  // Exact hits at both array boundaries.
  EXPECT_EQ(internal::GallopLowerBound(p, n, 0, 2), 0u);
  EXPECT_EQ(internal::GallopLowerBound(p, n, 0, 10), n - 1);
  // Between elements, resuming from a nonzero start.
  EXPECT_EQ(internal::GallopLowerBound(p, n, 1, 7), 3u);
  // start already past the key's position returns start (contract: resume
  // positions only move forward).
  EXPECT_EQ(internal::GallopLowerBound(p, n, 4, 3), 4u);
}

TEST(GallopingIntersectTest, EmptyOperands) {
  const std::vector<VertexID> a = {1, 2, 3};
  std::vector<VertexID> out(4, 0xDEADBEEF);
  EXPECT_EQ(internal::GallopingIntersect(nullptr, 0, a.data(), a.size(),
                                         out.data()),
            0u);
  EXPECT_EQ(internal::GallopingIntersect(a.data(), a.size(), nullptr, 0,
                                         out.data()),
            0u);
  EXPECT_EQ(internal::GallopingIntersect(nullptr, 0, nullptr, 0, out.data()),
            0u);
}

TEST(GallopingIntersectTest, BoundaryRuns) {
  // Matches concentrated at the very start and very end of the large array,
  // with the small array's last key past the large array's end.
  const std::vector<VertexID> small = {0, 99, 1000};
  std::vector<VertexID> large;
  for (VertexID i = 0; i < 100; ++i) large.push_back(i);
  std::vector<VertexID> out(3, 0xDEADBEEF);
  const size_t n = internal::GallopingIntersect(
      small.data(), small.size(), large.data(), large.size(), out.data());
  ASSERT_EQ(n, 2u);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 99u);
}

TEST(MultiwayTest, SingleOperandAliasedOutput) {
  // k == 1 copies sets[0] into out; callers may pass out == sets[0].data()
  // ("copy into place"), which the old memcpy made UB.
  std::vector<VertexID> a = RandomSortedSet(64, 300, 9);
  const std::vector<VertexID> original = a;
  std::vector<VertexID> scratch(a.size());
  std::array<std::span<const VertexID>, 1> sets = {std::span(a)};
  const size_t n = IntersectMultiway(sets, a.data(), scratch.data(),
                                     IntersectKernel::kHybrid);
  EXPECT_EQ(n, original.size());
  EXPECT_EQ(a, original);
}

TEST(MultiwayTest, SingleEmptyOperand) {
  // An empty span may carry a null data pointer; the k == 1 path must not
  // hand it to memcpy.
  std::array<std::span<const VertexID>, 1> sets = {
      std::span<const VertexID>()};
  std::vector<VertexID> out(4, 0xDEADBEEF);
  std::vector<VertexID> scratch(4);
  EXPECT_EQ(IntersectMultiway(sets, out.data(), scratch.data(),
                              IntersectKernel::kMerge),
            0u);
  EXPECT_EQ(out[0], 0xDEADBEEF);  // untouched
}

TEST(StatsTest, CountsAccumulate) {
  IntersectStats stats;
  const auto a = RandomSortedSet(100, 1000, 1);
  const auto b = RandomSortedSet(100, 1000, 2);
  std::vector<VertexID> out(100);
  for (int i = 0; i < 5; ++i) {
    IntersectSorted(a, b, out.data(), IntersectKernel::kMerge, &stats);
  }
  EXPECT_EQ(stats.num_intersections, 5u);
  IntersectStats other;
  other.Add(stats);
  other.Add(stats);
  EXPECT_EQ(other.num_intersections, 10u);
  EXPECT_DOUBLE_EQ(stats.GallopingFraction(), 0.0);
}

TEST(MultiwayTest, SingleOperandCopiesWithoutIntersection) {
  const auto a = RandomSortedSet(50, 200, 3);
  std::vector<VertexID> out(a.size());
  std::vector<VertexID> scratch(a.size());
  IntersectStats stats;
  std::array<std::span<const VertexID>, 1> sets = {std::span(a)};
  const size_t n = IntersectMultiway(sets, out.data(), scratch.data(),
                                     IntersectKernel::kHybrid, &stats);
  EXPECT_EQ(n, a.size());
  EXPECT_EQ(stats.num_intersections, 0u);
}

TEST(MultiwayTest, ThreeWayMatchesSequentialReference) {
  const auto a = RandomSortedSet(300, 1000, 4);
  const auto b = RandomSortedSet(400, 1000, 5);
  const auto c = RandomSortedSet(200, 1000, 6);
  const auto expected = ReferenceIntersect(ReferenceIntersect(a, b), c);

  std::vector<VertexID> out(200);
  std::vector<VertexID> scratch(200);
  IntersectStats stats;
  std::array<std::span<const VertexID>, 3> sets = {std::span(a), std::span(b),
                                                   std::span(c)};
  const size_t n = IntersectMultiway(sets, out.data(), scratch.data(),
                                     IntersectKernel::kHybrid, &stats);
  ASSERT_EQ(n, expected.size());
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], expected[i]);
  // Exactly k-1 = 2 pairwise intersections (Equation 7 accounting).
  EXPECT_EQ(stats.num_intersections, 2u);
}

TEST(MultiwayTest, FourAndFiveWayAllKernels) {
  std::vector<std::vector<VertexID>> sets_data;
  for (uint64_t s = 0; s < 5; ++s) {
    sets_data.push_back(RandomSortedSet(150 + 37 * s, 800, 10 + s));
  }
  std::vector<VertexID> expected = sets_data[0];
  for (size_t i = 1; i < sets_data.size(); ++i) {
    expected = ReferenceIntersect(expected, sets_data[i]);
  }
  for (IntersectKernel kernel : AllKernels()) {
    for (size_t k : {4u, 5u}) {
      std::vector<std::span<const VertexID>> sets;
      for (size_t i = 0; i < k; ++i) sets.emplace_back(sets_data[i]);
      std::vector<VertexID> ref = sets_data[0];
      for (size_t i = 1; i < k; ++i) ref = ReferenceIntersect(ref, sets_data[i]);
      std::vector<VertexID> out(400);
      std::vector<VertexID> scratch(400);
      const size_t n = IntersectMultiway(sets, out.data(), scratch.data(),
                                         kernel, nullptr);
      ASSERT_EQ(n, ref.size()) << KernelName(kernel) << " k=" << k;
      for (size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], ref[i]);
    }
  }
}

TEST(MultiwayTest, EarlyEmptyShortCircuits) {
  std::vector<VertexID> a = {1, 2, 3};
  std::vector<VertexID> b = {4, 5, 6};
  std::vector<VertexID> c = {1, 4, 7};
  std::vector<VertexID> out(3);
  std::vector<VertexID> scratch(3);
  IntersectStats stats;
  std::array<std::span<const VertexID>, 3> sets = {std::span(a), std::span(b),
                                                   std::span(c)};
  EXPECT_EQ(IntersectMultiway(sets, out.data(), scratch.data(),
                              IntersectKernel::kMerge, &stats),
            0u);
  // a cap b is empty; the third intersection is skipped.
  EXPECT_EQ(stats.num_intersections, 1u);
}

TEST(KernelMetaTest, NamesAndAvailability) {
  EXPECT_EQ(KernelName(IntersectKernel::kMerge), "Merge");
  EXPECT_EQ(KernelName(IntersectKernel::kHybridAvx2), "HybridAVX2");
  EXPECT_TRUE(KernelAvailable(IntersectKernel::kMerge));
#if defined(LIGHT_HAVE_AVX2)
  EXPECT_TRUE(KernelAvailable(IntersectKernel::kHybridAvx2));
#endif
}

TEST(KernelMetaTest, KernelFromNameInvertsKernelName) {
  for (IntersectKernel k : kAllKernels) {
    EXPECT_EQ(KernelFromName(KernelName(k)), k) << KernelName(k);
  }
  // The CLI spelling: lower case with '_' between words.
  EXPECT_EQ(KernelFromName("merge_avx2"), IntersectKernel::kMergeAvx2);
  EXPECT_EQ(KernelFromName("hybrid_avx2"), IntersectKernel::kHybridAvx2);
  EXPECT_EQ(KernelFromName("binary_search"), IntersectKernel::kBinarySearch);
  EXPECT_FALSE(KernelFromName("").has_value());
  EXPECT_FALSE(KernelFromName("merge2").has_value());
}

}  // namespace
}  // namespace light
