// Hybrid bitmap/array representation: kernel edge cases, cost-model routing,
// the per-graph BitmapIndex, multiway equivalence, and the engine/facade
// count-invariance guarantees (attaching an index never changes results).

#include "intersect/bitmap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "engine/enumerator.h"
#include "engine/visitors.h"
#include "gen/generators.h"
#include "graph/bitmap_index.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"
#include "intersect/multiway.h"
#include "light.h"
#include "pattern/catalog.h"
#include "plan/plan.h"

namespace light {
namespace {

std::vector<uint64_t> MakeBitmap(VertexID universe,
                                 const std::vector<VertexID>& elems) {
  std::vector<uint64_t> bits(BitmapWords(universe), 0);
  for (VertexID v : elems) bits[v >> 6] |= uint64_t{1} << (v & 63u);
  return bits;
}

std::vector<VertexID> ReferenceIntersect(std::vector<VertexID> a,
                                         std::vector<VertexID> b) {
  std::vector<VertexID> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

TEST(BitmapKernelTest, WordsAndMembership) {
  EXPECT_EQ(BitmapWords(0), 0u);
  EXPECT_EQ(BitmapWords(1), 1u);
  EXPECT_EQ(BitmapWords(64), 1u);
  EXPECT_EQ(BitmapWords(65), 2u);
  const auto bits = MakeBitmap(130, {0, 63, 64, 129});
  EXPECT_TRUE(BitmapTest(bits.data(), 0));
  EXPECT_TRUE(BitmapTest(bits.data(), 63));
  EXPECT_TRUE(BitmapTest(bits.data(), 64));
  EXPECT_TRUE(BitmapTest(bits.data(), 129));
  EXPECT_FALSE(BitmapTest(bits.data(), 1));
  EXPECT_FALSE(BitmapTest(bits.data(), 128));
}

TEST(BitmapKernelTest, DecodeRoundTrip) {
  // Straddles a word boundary and exercises a partial last word.
  const std::vector<VertexID> elems = {0, 1, 5, 63, 64, 65, 99};
  const auto bits = MakeBitmap(100, elems);
  std::vector<VertexID> out(100);
  ASSERT_EQ(internal::DecodeBitmap(bits.data(), bits.size(), out.data()),
            elems.size());
  out.resize(elems.size());
  EXPECT_EQ(out, elems);

  // All bits set in a multi-word universe.
  std::vector<VertexID> all(130);
  for (VertexID v = 0; v < 130; ++v) all[v] = v;
  const auto full = MakeBitmap(130, all);
  std::vector<VertexID> out_full(130);
  ASSERT_EQ(internal::DecodeBitmap(full.data(), full.size(), out_full.data()),
            130u);
  EXPECT_EQ(out_full, all);

  // Empty bitmap decodes to nothing.
  const std::vector<uint64_t> empty(3, 0);
  EXPECT_EQ(internal::DecodeBitmap(empty.data(), empty.size(), out.data()),
            0u);
}

TEST(BitmapKernelTest, AndRowsMatchesReference) {
  const std::vector<VertexID> a = {1, 3, 64, 65, 127};
  const std::vector<VertexID> b = {1, 2, 64, 127};
  const std::vector<VertexID> c = {0, 1, 64, 100, 127};
  const auto ba = MakeBitmap(128, a);
  const auto bb = MakeBitmap(128, b);
  const auto bc = MakeBitmap(128, c);

  // k == 1 copies.
  std::vector<uint64_t> out(2);
  const uint64_t* one[] = {ba.data()};
  internal::AndRows(one, 1, 2, out.data());
  EXPECT_EQ(out, ba);

  const uint64_t* rows[] = {ba.data(), bb.data(), bc.data()};
  internal::AndRows(rows, 3, 2, out.data());
  std::vector<VertexID> decoded(128);
  decoded.resize(internal::DecodeBitmap(out.data(), 2, decoded.data()));
  EXPECT_EQ(decoded, ReferenceIntersect(ReferenceIntersect(a, b), c));
}

TEST(BitmapKernelTest, ProbeBitmapInPlace) {
  // out == arr: in-place compaction must be safe (the engine probes a
  // candidate buffer through a neighborhood bitmap into itself).
  std::vector<VertexID> arr = {2, 5, 63, 64, 90, 99};
  const auto bits = MakeBitmap(100, {5, 64, 99});
  const size_t n = internal::ProbeBitmap(arr.data(), arr.size(), bits.data(),
                                         arr.data());
  arr.resize(n);
  EXPECT_EQ(arr, (std::vector<VertexID>{5, 64, 99}));
}

TEST(BitmapKernelTest, RouteSelection) {
  // Empty operands and missing scratch always take the array kernels.
  EXPECT_EQ(ChooseIntersectRoute(0, true, 10, true, 4),
            IntersectRoute::kArray);
  EXPECT_EQ(ChooseIntersectRoute(10, true, 0, true, 4),
            IntersectRoute::kArray);
  EXPECT_EQ(ChooseIntersectRoute(10, true, 10, true, 0),
            IntersectRoute::kArray);
  // Dense both-bitmap pair: the word AND wins once 4*words <= na+nb.
  EXPECT_EQ(ChooseIntersectRoute(100, true, 100, true, 4),
            IntersectRoute::kBitmapAnd);
  // Skewed pair with only the big side bitmap-resident: probe the small one.
  EXPECT_EQ(ChooseIntersectRoute(2, false, 100, true, 4),
            IntersectRoute::kBitmapProbeA);
  EXPECT_EQ(ChooseIntersectRoute(100, true, 2, false, 4),
            IntersectRoute::kBitmapProbeB);
  // Balanced array-only pair stays on Algorithm 4.
  EXPECT_EQ(ChooseIntersectRoute(100, false, 100, false, 4),
            IntersectRoute::kArray);
}

TEST(BitmapKernelTest, HybridPairMatchesArrayOnEveryRoute) {
  const VertexID universe = 256;
  std::vector<VertexID> big_a;
  std::vector<VertexID> big_b;
  for (VertexID v = 0; v < universe; v += 2) big_a.push_back(v);
  for (VertexID v = 0; v < universe; v += 3) big_b.push_back(v);
  const std::vector<VertexID> small = {3, 6, 64, 128, 200};
  const auto bits_a = MakeBitmap(universe, big_a);
  const auto bits_b = MakeBitmap(universe, big_b);
  const size_t words = BitmapWords(universe);
  std::vector<uint64_t> scratch(words);
  std::vector<VertexID> out(universe);

  struct Case {
    SetView a;
    SetView b;
    std::vector<VertexID> expect;
  };
  const Case cases[] = {
      // Both bitmap-resident: kBitmapAnd.
      {SetView(big_a, bits_a.data()), SetView(big_b, bits_b.data()),
       ReferenceIntersect(big_a, big_b)},
      // Small array vs bitmap-resident side: probe routes.
      {SetView(small), SetView(big_b, bits_b.data()),
       ReferenceIntersect(small, big_b)},
      {SetView(big_a, bits_a.data()), SetView(small),
       ReferenceIntersect(big_a, small)},
      // Array-only fallback.
      {SetView(big_a), SetView(big_b), ReferenceIntersect(big_a, big_b)},
      // Empty operand.
      {SetView(std::span<const VertexID>{}), SetView(big_b, bits_b.data()),
       {}},
  };
  for (const Case& c : cases) {
    IntersectStats stats;
    const size_t n =
        IntersectHybridPair(c.a, c.b, out.data(), scratch.data(), words,
                            IntersectKernel::kHybrid, &stats);
    EXPECT_EQ(std::vector<VertexID>(out.begin(), out.begin() + n), c.expect);
    if (!c.expect.empty() || c.a.size() + c.b.size() > 0) {
      EXPECT_EQ(stats.num_intersections, 1u);
    }
  }

  // With word scratch withheld the hybrid pair degrades to the array path.
  IntersectStats stats;
  const size_t n = IntersectHybridPair(
      SetView(big_a, bits_a.data()), SetView(big_b, bits_b.data()), out.data(),
      nullptr, 0, IntersectKernel::kHybrid, &stats);
  EXPECT_EQ(std::vector<VertexID>(out.begin(), out.begin() + n),
            ReferenceIntersect(big_a, big_b));
  EXPECT_EQ(stats.num_bitmap_and, 0u);
  EXPECT_EQ(stats.num_bitmap_probe, 0u);
}

TEST(BitmapKernelTest, StatsCountRoutes) {
  const VertexID universe = 64;
  std::vector<VertexID> dense;
  for (VertexID v = 0; v < universe; ++v) dense.push_back(v);
  const auto bits = MakeBitmap(universe, dense);
  std::vector<uint64_t> scratch(1);
  std::vector<VertexID> out(universe);

  IntersectStats stats;
  IntersectHybridPair(SetView(dense, bits.data()), SetView(dense, bits.data()),
                      out.data(), scratch.data(), 1, IntersectKernel::kHybrid,
                      &stats);
  EXPECT_EQ(stats.num_bitmap_and, 1u);

  const std::vector<VertexID> tiny = {7};
  IntersectHybridPair(SetView(tiny), SetView(dense, bits.data()), out.data(),
                      scratch.data(), 1, IntersectKernel::kHybrid, &stats);
  EXPECT_EQ(stats.num_bitmap_probe, 1u);
  EXPECT_GT(stats.BitmapFraction(), 0.0);
}

TEST(BitmapIndexTest, ThresholdZeroIndexesEveryVertex) {
  const Graph g = ErdosRenyi(200, 2000, /*seed=*/3);
  BitmapIndexOptions opts;
  opts.min_degree = 0;
  const BitmapIndex index = BitmapIndex::Build(g, opts);
  EXPECT_FALSE(index.empty());
  EXPECT_EQ(index.num_rows(), g.NumVertices());
  EXPECT_EQ(index.words(), BitmapWords(g.NumVertices()));
  for (VertexID v = 0; v < g.NumVertices(); ++v) {
    const uint64_t* row = index.Row(v);
    ASSERT_NE(row, nullptr);
    std::vector<VertexID> decoded(g.NumVertices());
    decoded.resize(
        internal::DecodeBitmap(row, index.words(), decoded.data()));
    const auto neighbors = g.Neighbors(v);
    EXPECT_EQ(decoded,
              std::vector<VertexID>(neighbors.begin(), neighbors.end()));
  }
}

TEST(BitmapIndexTest, NeverThresholdBuildsNothing) {
  const Graph g = ErdosRenyi(100, 500, /*seed=*/3);
  BitmapIndexOptions opts;
  opts.min_degree = kBitmapDegreeNever;
  const BitmapIndex index = BitmapIndex::Build(g, opts);
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.num_rows(), 0u);
}

TEST(BitmapIndexTest, ThresholdStraddlesDegrees) {
  // Star: the hub has degree n-1, every leaf degree 1.
  const Graph g = Star(50);
  BitmapIndexOptions opts;
  opts.min_degree = 2;
  const BitmapIndex index = BitmapIndex::Build(g, opts);
  EXPECT_EQ(index.num_rows(), 1u);
  EXPECT_NE(index.Row(0), nullptr);
  for (VertexID v = 1; v < g.NumVertices(); ++v) {
    EXPECT_EQ(index.Row(v), nullptr);
  }
}

TEST(BitmapIndexTest, ByteBudgetKeepsDensestRows) {
  const Graph g = Star(9);  // 1 word per row = 8 bytes
  BitmapIndexOptions opts;
  opts.min_degree = 0;
  opts.max_bytes = 16;  // room for exactly two rows
  const BitmapIndex index = BitmapIndex::Build(g, opts);
  EXPECT_EQ(index.num_rows(), 2u);
  EXPECT_NE(index.Row(0), nullptr);  // the hub is densest
  EXPECT_NE(index.Row(1), nullptr);  // degree tie broken by lower ID
  EXPECT_EQ(index.Row(2), nullptr);
  // Budget bounds row storage; MemoryBytes additionally counts the
  // per-vertex row table (9 vertices x 8 bytes).
  EXPECT_EQ(index.MemoryBytes(), 16u + 9 * sizeof(int64_t));
}

TEST(MultiwayHybridTest, MatchesArrayMultiway) {
  const VertexID universe = 192;
  std::vector<std::vector<VertexID>> sets;
  for (VertexID step = 2; step <= 5; ++step) {
    std::vector<VertexID> s;
    for (VertexID v = step; v < universe; v += step) s.push_back(v);
    sets.push_back(std::move(s));
  }
  std::vector<std::vector<uint64_t>> bitmaps;
  for (const auto& s : sets) bitmaps.push_back(MakeBitmap(universe, s));
  const size_t words = BitmapWords(universe);

  for (size_t k = 1; k <= sets.size(); ++k) {
    std::vector<std::span<const VertexID>> plain;
    std::vector<SetView> all_bits;
    std::vector<SetView> mixed;
    for (size_t i = 0; i < k; ++i) {
      plain.emplace_back(sets[i]);
      all_bits.emplace_back(sets[i], bitmaps[i].data());
      // Alternate array-only and bitmap-resident operands.
      mixed.emplace_back(sets[i], i % 2 == 0 ? bitmaps[i].data() : nullptr);
    }
    std::vector<VertexID> expect(universe);
    std::vector<VertexID> scratch(universe);
    expect.resize(IntersectMultiway(plain, expect.data(), scratch.data(),
                                    IntersectKernel::kHybrid));

    for (const auto& views : {all_bits, mixed}) {
      std::vector<VertexID> out(universe);
      std::vector<uint64_t> word_scratch(words);
      IntersectStats stats;
      out.resize(IntersectMultiwayHybrid(views, out.data(), scratch.data(),
                                         word_scratch.data(), words,
                                         IntersectKernel::kHybrid, &stats));
      EXPECT_EQ(out, expect) << "k=" << k;
      if (k > 1) {
        EXPECT_EQ(stats.num_intersections, k - 1);
      }
    }
  }
}

class AcceptAllVisitor : public MatchVisitor {
 public:
  bool OnMatch(std::span<const VertexID>) override { return true; }
};

TEST(EngineBitmapTest, IndexNeverChangesCounts) {
  const Graph dense =
      RelabelByDegree(ErdosRenyi(300, 13500, /*seed=*/9));  // p ~ 0.3
  const Graph clique = Complete(40);
  const char* patterns[] = {"triangle", "square", "k4"};
  for (const Graph* g : {&dense, &clique}) {
    const GraphStats stats = ComputeGraphStats(*g);
    for (const char* pname : patterns) {
      Pattern pattern;
      ASSERT_TRUE(FindPattern(pname, &pattern).ok());
      const ExecutionPlan plan =
          BuildPlan(pattern, *g, stats, PlanOptions::Light());

      Enumerator baseline(*g, plan);
      const uint64_t expect = baseline.Count();

      for (uint32_t threshold : {0u, 8u}) {
        BitmapIndexOptions opts;
        opts.min_degree = threshold;
        const BitmapIndex index = BitmapIndex::Build(*g, opts);
        Enumerator with_index(*g, plan);
        with_index.SetBitmapIndex(&index);
        EXPECT_EQ(with_index.Count(), expect)
            << pname << " threshold=" << threshold;
        if (threshold == 0) {
          // Fully indexed dense graphs must actually take the bitmap routes.
          // A count-only square closes through its twin closure and
          // intersects nothing, so its routes are read off a visitor run,
          // which walks every COMP.
          const auto routed = [](const Enumerator& e) {
            return e.stats().intersections.num_bitmap_and +
                   e.stats().intersections.num_bitmap_probe;
          };
          if (plan.leaf.b < 0) {
            EXPECT_GT(routed(with_index), 0u) << pname;
          }
          AcceptAllVisitor visitor;
          EXPECT_EQ(with_index.Enumerate(&visitor), expect) << pname;
          EXPECT_GT(routed(with_index), 0u) << pname << " visitor";
        }
      }
    }
  }
}

TEST(FacadeRunTest, ValidateRejectsBadOptions) {
  RunOptions negative;
  negative.threads = -2;
  EXPECT_FALSE(negative.Validate().ok());

  CollectingVisitor visitor;
  RunOptions parallel_visitor;
  parallel_visitor.visitor = &visitor;
  parallel_visitor.threads = 4;
  const Status s = parallel_visitor.Validate();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("unsupported"), std::string::npos);

  if (!KernelAvailable(IntersectKernel::kHybridAvx2)) {
    RunOptions pinned;
    pinned.plan_options.kernel = IntersectKernel::kHybridAvx2;
    pinned.plan_options.auto_kernel = false;
    EXPECT_FALSE(pinned.Validate().ok());
  }
}

TEST(FacadeRunTest, NormalizedResolvesKernelAndThreads) {
  RunOptions opts;
  opts.threads = -3;
  const RunOptions norm = opts.Normalized();
  EXPECT_EQ(norm.threads, 0);
  EXPECT_FALSE(norm.plan_options.auto_kernel);
  EXPECT_TRUE(KernelAvailable(norm.plan_options.kernel));
  EXPECT_EQ(norm.plan_options.kernel, BestAvailableKernel());
  EXPECT_EQ(norm.plan_options.kernel,
            KernelAvailable(IntersectKernel::kHybridAvx2)
                ? IntersectKernel::kHybridAvx2
                : IntersectKernel::kHybrid);

  CollectingVisitor visitor;
  RunOptions streaming;
  streaming.visitor = &visitor;
  streaming.threads = 0;
  EXPECT_EQ(streaming.Normalized().threads, 1);
}

TEST(FacadeRunTest, EffectiveBitmapThresholdRules) {
  PlanOptions opts;  // auto threshold, default density 0.1
  EXPECT_EQ(EffectiveBitmapThreshold(opts, 100), 10u);
  opts.bitmap_density = 0.0;
  EXPECT_EQ(EffectiveBitmapThreshold(opts, 100), 1u);  // floor at 1
  opts.bitmap_min_degree = 5;  // explicit value wins over density
  EXPECT_EQ(EffectiveBitmapThreshold(opts, 100), 5u);
  opts.bitmap_min_degree = kBitmapDegreeNever;
  EXPECT_EQ(EffectiveBitmapThreshold(opts, 100), kBitmapDegreeNever);
}

TEST(FacadeRunTest, BitmapOnOffCountsAgree) {
  const Graph g = RelabelByDegree(ErdosRenyi(250, 9000, /*seed=*/21));
  Pattern triangle;
  ASSERT_TRUE(FindPattern("triangle", &triangle).ok());

  RunOptions off;
  off.threads = 1;
  off.plan_options.bitmap_min_degree = kBitmapDegreeNever;
  const RunResult base = light::Run(g, triangle, off);
  ASSERT_TRUE(base.ok());
  EXPECT_GT(base.num_matches, 0u);

  obs::RunReport report;
  RunOptions on;
  on.threads = 1;
  on.plan_options.bitmap_min_degree = 0;
  on.report = &report;
  const RunResult hybrid = light::Run(g, triangle, on);
  ASSERT_TRUE(hybrid.ok());
  EXPECT_EQ(hybrid.num_matches, base.num_matches);
  EXPECT_EQ(report.bitmap_rows, g.NumVertices());
  EXPECT_GT(report.bitmap_memory_bytes, 0u);
  EXPECT_GT(report.engine.intersections.num_bitmap_and +
                report.engine.intersections.num_bitmap_probe,
            0u);

  // Parallel hybrid agrees too (shared read-only index across workers).
  RunOptions par = on;
  par.report = nullptr;
  par.threads = 4;
  const RunResult parallel = light::Run(g, triangle, par);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel.num_matches, base.num_matches);
}

}  // namespace
}  // namespace light
