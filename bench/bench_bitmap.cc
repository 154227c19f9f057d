// Hybrid bitmap/array intersection benchmark (Section VIII companion to the
// Table III kernel-routing study).
//
// Two legs:
//  1. Micro: pairwise intersections of dense neighborhoods (ER p=0.3/0.5 and
//     complete graphs) with both operands bitmap-resident, array kernel vs
//     the bitmap AND+decode route. Acceptance: the best dense family must
//     reach the --check speedup (default off; CI passes --check 1.3).
//  2. End-to-end: light::Run on a dense ER graph with the bitmap index
//     forced on (threshold 0) vs off (never); match counts must agree.
//
// Every timed run is appended to --json PATH as one JSONL record.

#include "bench_util.h"

#include "common/rng.h"
#include "gen/generators.h"
#include "graph/bitmap_index.h"
#include "intersect/bitmap.h"
#include "light.h"

namespace {

using namespace light;
using namespace light::bench;

struct MicroFamily {
  const char* name;
  Graph graph;
};

struct MicroResult {
  double array_seconds = 0;
  double bitmap_seconds = 0;
  uint64_t checksum = 0;  // defeats dead-code elimination; equal across legs
  uint64_t intersections = 0;
  double Speedup() const {
    return bitmap_seconds > 0 ? array_seconds / bitmap_seconds : 0.0;
  }
};

// Times `reps` sweeps over the sampled vertex pairs with the pure-array
// kernel and with the hybrid path (both operands bitmap-resident).
MicroResult RunMicro(const Graph& graph, const BitmapIndex& index,
                     const std::vector<std::pair<VertexID, VertexID>>& pairs,
                     IntersectKernel kernel, int reps) {
  MicroResult r;
  std::vector<VertexID> out(graph.NumVertices());
  std::vector<uint64_t> word_scratch(index.words());
  uint64_t array_sum = 0;
  uint64_t bitmap_sum = 0;

  const Timer array_timer;
  for (int rep = 0; rep < reps; ++rep) {
    for (const auto& [u, v] : pairs) {
      array_sum += IntersectSorted(graph.Neighbors(u), graph.Neighbors(v),
                                   out.data(), kernel);
    }
  }
  r.array_seconds = array_timer.ElapsedSeconds();

  const Timer bitmap_timer;
  for (int rep = 0; rep < reps; ++rep) {
    for (const auto& [u, v] : pairs) {
      const SetView a(graph.Neighbors(u), index.Row(u));
      const SetView b(graph.Neighbors(v), index.Row(v));
      bitmap_sum += IntersectHybridPair(a, b, out.data(), word_scratch.data(),
                                        index.words(), kernel);
    }
  }
  r.bitmap_seconds = bitmap_timer.ElapsedSeconds();

  if (array_sum != bitmap_sum) {
    std::fprintf(stderr, "FATAL: kernel disagreement (array=%llu bitmap=%llu)\n",
                 static_cast<unsigned long long>(array_sum),
                 static_cast<unsigned long long>(bitmap_sum));
    std::exit(1);
  }
  r.checksum = array_sum;
  r.intersections =
      static_cast<uint64_t>(pairs.size()) * static_cast<uint64_t>(reps);
  return r;
}

void RecordMicro(const BenchArgs& args, const char* family, const char* variant,
                 double seconds, uint64_t intersections) {
  bench::RunResult rr;
  rr.seconds = seconds;
  rr.stats.intersections.num_intersections = intersections;
  RecordRun(args, "bench_bitmap", family, "pairwise", variant, 1, rr);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv, /*scale=*/1.0,
                                          /*limit=*/60.0, {}, {});
  double check = 0.0;
  int reps = 20;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = std::atof(argv[i + 1]);
    if (std::strcmp(argv[i], "--reps") == 0) reps = std::atoi(argv[i + 1]);
  }
  PrintHeader("Bitmap vs array intersection kernels", args);

  const VertexID n =
      std::max<VertexID>(512, static_cast<VertexID>(4096 * args.scale));
  const EdgeID er_base = static_cast<EdgeID>(n) * (n - 1) / 2;
  MicroFamily families[] = {
      {"er_p03", ErdosRenyi(n, static_cast<EdgeID>(0.3 * er_base), 7)},
      {"er_p05", ErdosRenyi(n, static_cast<EdgeID>(0.5 * er_base), 7)},
      {"complete", Complete(std::min<VertexID>(n, 2048))},
  };
  const IntersectKernel kernel = BestAvailableKernel();

  std::printf("micro: n=%u reps=%d pairs=256 kernel=%s\n", n, reps,
              KernelName(kernel).c_str());
  std::printf("%-10s | %12s %12s | %8s\n", "family", "array", "bitmap",
              "speedup");
  double best_speedup = 0.0;
  for (MicroFamily& family : families) {
    BitmapIndexOptions opts;
    opts.min_degree = 0;  // every neighborhood bitmap-resident
    const BitmapIndex index = BitmapIndex::Build(family.graph, opts);

    Rng rng(13);
    std::vector<std::pair<VertexID, VertexID>> pairs;
    const VertexID fn = family.graph.NumVertices();
    for (int i = 0; i < 256; ++i) {
      pairs.emplace_back(static_cast<VertexID>(rng.NextBounded(fn)),
                         static_cast<VertexID>(rng.NextBounded(fn)));
    }

    RunMicro(family.graph, index, pairs, kernel, 1);  // warm-up
    const MicroResult r = RunMicro(family.graph, index, pairs, kernel, reps);
    std::printf("%-10s | %11.4fs %11.4fs | %7.2fx\n", family.name,
                r.array_seconds, r.bitmap_seconds, r.Speedup());
    RecordMicro(args, family.name, "micro_array", r.array_seconds,
                r.intersections);
    RecordMicro(args, family.name, "micro_bitmap", r.bitmap_seconds,
                r.intersections);
    best_speedup = std::max(best_speedup, r.Speedup());
  }

  // End-to-end: the facade with the index forced on vs off. Triangle on a
  // dense ER graph is the most bitmap-friendly workload; counts must match.
  const VertexID en =
      std::max<VertexID>(256, static_cast<VertexID>(800 * args.scale));
  const Graph egraph =
      ErdosRenyi(en, static_cast<EdgeID>(0.3 * en * (en - 1) / 2), 11);
  Pattern triangle = LoadPattern("triangle");
  std::printf("\nend-to-end: triangle on ER n=%u p=0.3, threads=1\n", en);
  uint64_t matches[2] = {0, 0};
  double seconds[2] = {0, 0};
  const char* variants[2] = {"run_array", "run_bitmap"};
  for (int i = 0; i < 2; ++i) {
    RunOptions opts;
    opts.threads = 1;
    opts.time_limit_seconds = args.time_limit_seconds;
    opts.plan_options.bitmap_min_degree = i == 0 ? kBitmapDegreeNever : 0;
    const light::RunResult r = Run(egraph, triangle, opts);
    if (!r.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", r.error.c_str());
      return 1;
    }
    matches[i] = r.num_matches;
    seconds[i] = r.elapsed_seconds;
    std::printf("  %-10s matches=%llu time=%.3fs\n", variants[i],
                static_cast<unsigned long long>(r.num_matches),
                r.elapsed_seconds);
    bench::RunResult rr;
    rr.seconds = r.elapsed_seconds;
    rr.matches = r.num_matches;
    RecordRun(args, "bench_bitmap", "er_dense", "triangle", variants[i], 1, rr);
  }
  if (matches[0] != matches[1]) {
    std::fprintf(stderr, "FATAL: bitmap changed the count (%llu vs %llu)\n",
                 static_cast<unsigned long long>(matches[0]),
                 static_cast<unsigned long long>(matches[1]));
    return 1;
  }
  std::printf("  end-to-end speedup: %.2fx\n",
              seconds[1] > 0 ? seconds[0] / seconds[1] : 0.0);

  std::printf("\nbest micro speedup (both operands bitmap-resident): %.2fx\n",
              best_speedup);
  if (check > 0 && best_speedup < check) {
    std::fprintf(stderr,
                 "FAIL: best bitmap speedup %.2fx below required %.2fx\n",
                 best_speedup, check);
    return 1;
  }
  return 0;
}
