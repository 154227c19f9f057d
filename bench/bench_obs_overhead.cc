// Observability overhead guard. The obs instrumentation must be free when
// nothing is listening: the disarmed hot path is two relaxed loads per root
// plus a predictable branch per COMP/MAT op. The disarmed path IS the
// baseline binary, so its cost cannot be isolated at runtime; instead this
// guard bounds the strictly-more-expensive armed-metrics path against the
// disarmed one on the Figure 8 micro config and asserts < 3% slowdown —
// an upper bound on what the disarmed checks can cost. Tracing overhead
// (sampled spans) is measured and reported but not asserted, since it is
// an explicit opt-in.
//
// A second guard covers the serving layer: a shared Session runs the same
// batch with the registry disarmed vs armed — per-query lifecycle tracking
// (admit/queue-wait/execute stamps, latency histograms, query log) is
// always on, so the armed leg isolates the registry mirrors' cost on top of
// full lifecycle instrumentation. Asserted < 3% as well.
//
// Exits non-zero when a guard fails, so CI (ci/verify.sh) can gate on it.
// --check is accepted as an explicit alias for the always-on assertion (so
// harnesses can invoke every CI-gated bench uniformly); --json PATH appends
// one JSONL record with the measured ratios.

#include <algorithm>

#include "bench_util.h"
#include "light.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

constexpr int kRepetitions = 5;

double MinSeconds(const light::bench::BenchGraph& bg,
                  const light::Pattern& pattern,
                  const light::PlanOptions& options, int threads,
                  double time_limit) {
  double best = 1e30;
  for (int i = 0; i < kRepetitions; ++i) {
    const light::bench::RunResult r =
        light::bench::RunParallel(bg, pattern, options, threads, time_limit);
    best = std::min(best, r.seconds);
  }
  return best;
}

/// One timed RunBatch on an already-warm Session (pool started, plans
/// cached, bitmap built).
double BatchSeconds(light::Session* session,
                    const std::vector<light::Pattern>& patterns,
                    const light::RunOptions& query) {
  light::Timer timer;
  session->RunBatch(patterns, query);
  return timer.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace light;
  using namespace light::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv, /*scale=*/0.25,
                                          /*limit=*/60.0, {"yt_s"}, {"P2"},
                                          {"--check"});
  PrintHeader("Observability overhead guard (< 3% with sinks disabled)",
              args);

  const BenchGraph bg = LoadBenchGraph(args.datasets[0], args.scale);
  const Pattern pattern = LoadPattern(args.patterns[0]);
  PlanOptions options = PlanOptions::Light();
  options.kernel = BestAvailableKernel();
  const int threads = 4;

  // Warm-up (page in the graph, settle the frequency governor).
  RunParallel(bg, pattern, options, threads, args.time_limit_seconds);

  obs::SetMetricsEnabled(false);
  const double disarmed = MinSeconds(bg, pattern, options, threads,
                                     args.time_limit_seconds);
  const double disarmed2 = MinSeconds(bg, pattern, options, threads,
                                      args.time_limit_seconds);

  obs::SetMetricsEnabled(true);
  obs::DefaultRegistry().ResetAll();
  const double metrics_on = MinSeconds(bg, pattern, options, threads,
                                       args.time_limit_seconds);
  obs::SetMetricsEnabled(false);

  obs::Tracer::Global().Start();
  const double tracing_on = MinSeconds(bg, pattern, options, threads,
                                       args.time_limit_seconds);
  obs::Tracer::Global().Stop();

  // Serving leg: one warm Session, same batch, registry disarmed vs armed.
  // Lifecycle tracking (timestamps, histograms, query log) runs in BOTH
  // legs — it is always on — so the armed ratio bounds the full
  // serving-instrumentation cost against the untracked engine above.
  const std::vector<Pattern> batch(8, pattern);
  RunOptions query;
  query.threads = threads;
  query.time_limit_seconds = args.time_limit_seconds;
  SessionOptions session_options;
  session_options.threads = threads;
  Session session(bg.graph, session_options);
  session.RunBatch(batch, query);  // warm-up: pool, plan cache, bitmap
  // Armed warm-up: the registry's lazy per-thread histogram shards
  // allocate here, outside the timed reps.
  obs::SetMetricsEnabled(true);
  session.RunBatch(batch, query);
  // Interleave the two legs rep-by-rep so clock-frequency or background
  // drift hits both equally instead of biasing whichever block ran later.
  double session_disarmed = 1e30;
  double session_armed = 1e30;
  for (int i = 0; i < kRepetitions * 2; ++i) {
    obs::SetMetricsEnabled(false);
    session_disarmed =
        std::min(session_disarmed, BatchSeconds(&session, batch, query));
    obs::SetMetricsEnabled(true);
    session_armed =
        std::min(session_armed, BatchSeconds(&session, batch, query));
  }
  obs::SetMetricsEnabled(false);

  const double noise = disarmed2 / disarmed;
  const double metrics_ratio = metrics_on / disarmed;
  const double tracing_ratio = tracing_on / disarmed;
  const double session_ratio =
      session_disarmed > 0 ? session_armed / session_disarmed : 0.0;
  std::printf("%-28s %10s %8s\n", "configuration", "min time", "ratio");
  std::printf("%-28s %10s %8.3f\n", "obs disarmed (baseline)",
              FormatSeconds(disarmed).c_str(), 1.0);
  std::printf("%-28s %10s %8.3f  (A/A noise floor)\n", "obs disarmed (rerun)",
              FormatSeconds(disarmed2).c_str(), noise);
  std::printf("%-28s %10s %8.3f  (asserted < 1.03)\n", "metrics armed",
              FormatSeconds(metrics_on).c_str(), metrics_ratio);
  std::printf("%-28s %10s %8.3f  (opt-in; informational)\n",
              "tracer armed (1/64 roots)", FormatSeconds(tracing_on).c_str(),
              tracing_ratio);
  std::printf("%-28s %10s %8.3f\n", "session batch disarmed",
              FormatSeconds(session_disarmed).c_str(), 1.0);
  std::printf("%-28s %10s %8.3f  (asserted < 1.03)\n", "session batch armed",
              FormatSeconds(session_armed).c_str(), session_ratio);

  if (!args.json_path.empty()) {
    obs::JsonWriter w;
    w.BeginObject();
    w.KV("bench", "bench_obs_overhead");
    w.KV("dataset", args.datasets[0]);
    w.KV("pattern", args.patterns[0]);
    w.KV("scale", args.scale);
    w.KV("threads", threads);
    w.KV("disarmed_seconds", disarmed);
    w.KV("noise_ratio", noise);
    w.KV("metrics_ratio", metrics_ratio);
    w.KV("tracing_ratio", tracing_ratio);
    w.KV("session_disarmed_seconds", session_disarmed);
    w.KV("session_ratio", session_ratio);
    w.EndObject();
    std::FILE* f = std::fopen(args.json_path.c_str(), "a");
    if (f != nullptr) {
      std::fprintf(f, "%s\n", w.str().c_str());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "cannot append to %s\n", args.json_path.c_str());
    }
  }

  if (metrics_ratio >= 1.03) {
    std::printf("\nFAIL: armed-metrics overhead %.1f%% >= 3%%\n",
                (metrics_ratio - 1.0) * 100.0);
    return 1;
  }
  if (session_ratio >= 1.03) {
    std::printf("\nFAIL: armed-session overhead %.1f%% >= 3%%\n",
                (session_ratio - 1.0) * 100.0);
    return 1;
  }
  std::printf("\nOK: armed-metrics overhead %.1f%%, armed-session overhead "
              "%.1f%% — both < 3%%\n",
              (metrics_ratio - 1.0) * 100.0, (session_ratio - 1.0) * 100.0);
  return 0;
}
