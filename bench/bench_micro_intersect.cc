// Microbenchmarks of the pairwise set-intersection kernels (Section VII-A)
// across set sizes and skew ratios, using google-benchmark. These support
// Figure 6 / Table III by showing where Galloping overtakes Merge and what
// AVX2 buys at each size.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "intersect/set_intersection.h"

namespace {

using light::IntersectKernel;
using light::VertexID;

std::vector<VertexID> MakeSet(size_t size, VertexID universe, uint64_t seed) {
  light::Rng rng(seed);
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

void BM_Intersect(benchmark::State& state, IntersectKernel kernel) {
  const size_t small_size = static_cast<size_t>(state.range(0));
  const size_t skew = static_cast<size_t>(state.range(1));
  const size_t large_size = small_size * skew;
  const VertexID universe = static_cast<VertexID>(large_size * 4 + 64);
  const auto a = MakeSet(small_size, universe, 1);
  const auto b = MakeSet(large_size, universe, 2);
  std::vector<VertexID> out(std::min(a.size(), b.size()) + 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        light::IntersectSorted(a, b, out.data(), kernel));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(a.size() + b.size()));
  state.counters["skew"] = static_cast<double>(skew);
}

void RegisterAll() {
  for (const IntersectKernel kernel : light::kAllKernels) {
    if (!light::KernelAvailable(kernel)) continue;
    const std::string name = "BM_Intersect/" + light::KernelName(kernel);
    auto* bench = benchmark::RegisterBenchmark(
        name.c_str(), [kernel](benchmark::State& state) {
          BM_Intersect(state, kernel);
        });
    // small size x skew ratio; skew 1 = balanced, 64/512 = cardinality skew.
    for (int64_t size : {64, 1024, 16384}) {
      for (int64_t skew : {1, 8, 64, 512}) {
        bench->Args({size, skew});
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
