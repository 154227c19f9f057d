// Differential fuzz harness for the LIGHT enumeration engines.
//
// Generates seeded random (data graph, pattern, config) cases and
// cross-checks the serial DFS engine, the work-stealing parallel runtime,
// the hybrid bitmap/array variants (randomized bitmap-index threshold:
// always / never / mid-degree), the light::Run facade, the CFL-/EH-like
// baselines, and the BSP join engines for identical match counts.
// Divergences are shrunk to a minimal repro and written as self-contained
// artifacts.
//
// Examples:
//   light_fuzz --seed 7 --cases 10000
//   light_fuzz --smoke                         # ~60 s budget, CI leg
//   light_fuzz --replay fuzz/divergence_seed7_case123.txt
//   light_fuzz --seed 7 --cases 500 --max-vertices 32 --artifact-dir /tmp

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "flags.h"
#include "common/mutex.h"
#include "fuzz/fuzz.h"

namespace {

void Usage() {
  std::fprintf(stderr, R"(light_fuzz: differential fuzzing of the LIGHT engines

  --seed N           run seed (default 1); every case derives from it
  --cases N          number of cases (default 1000)
  --time-budget SEC  stop early after SEC seconds (0 = run all cases)
  --smoke            CI smoke mode: 60 s budget, progress every 200 cases
  --max-vertices N   data-graph size cap (default 48)
  --artifact-dir D   where divergence artifacts go (default ".")
  --no-shrink        dump the raw divergent case without minimizing it
  --replay PATH      re-run a saved artifact and print per-engine counts

exit status: 0 = all cases agreed, 1 = usage/IO error, 2 = divergence found
)");
}

using light::tools::FlagSet;
using light::tools::FlagValue;

}  // namespace

int main(int argc, char** argv) {
  using namespace light;
  if (FlagSet(argc, argv, "--help")) {
    Usage();
    return 0;
  }

  if (const char* replay = FlagValue(argc, argv, "--replay")) {
    fuzz::FuzzCase c;
    if (Status s = fuzz::LoadArtifact(replay, &c); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("replaying %s\n%s\n", replay, c.Describe().c_str());
    const fuzz::OracleOutcome outcome = fuzz::RunOracles(c);
    std::printf("%s", outcome.Describe().c_str());
    if (outcome.divergent) {
      std::printf("DIVERGENT\n");
      return 2;
    }
    std::printf("all engines agree\n");
    return 0;
  }

  fuzz::FuzzOptions options;
  if (FlagSet(argc, argv, "--smoke")) {
    options.num_cases = 100000;  // budget-bound, not count-bound
    options.time_budget_seconds = 60;
    options.progress_interval = 200;
  }
  if (const char* v = FlagValue(argc, argv, "--seed")) {
    options.seed = std::strtoull(v, nullptr, 10);
  }
  if (const char* v = FlagValue(argc, argv, "--cases")) {
    options.num_cases = std::strtoull(v, nullptr, 10);
  }
  if (const char* v = FlagValue(argc, argv, "--time-budget")) {
    options.time_budget_seconds = std::atof(v);
  }
  if (const char* v = FlagValue(argc, argv, "--max-vertices")) {
    const long n = std::atol(v);
    if (n < 4) {
      std::fprintf(stderr, "error: --max-vertices must be at least 4\n");
      return 1;
    }
    options.limits.max_graph_vertices = static_cast<VertexID>(n);
  }
  if (const char* v = FlagValue(argc, argv, "--artifact-dir")) {
    options.artifact_dir = v;
  }
  options.shrink = !FlagSet(argc, argv, "--no-shrink");

  fuzz::FuzzSummary summary;
  const Status status = fuzz::RunFuzz(options, &summary);
  std::printf(
      "light_fuzz: seed=%llu cases=%llu divergences=%llu bitmap_cases=%llu "
      "lint_violations=%llu session_cases=%llu deadline_cases=%llu "
      "iep_cases=%llu comp_window_cases=%llu twin_closure_cases=%llu "
      "twin_leaf_cases=%llu store_cases=%llu labeled_cases=%llu "
      "time=%.1fs\n",
      static_cast<unsigned long long>(options.seed),
      static_cast<unsigned long long>(summary.cases_run),
      static_cast<unsigned long long>(summary.divergences),
      static_cast<unsigned long long>(summary.bitmap_routed_cases),
      static_cast<unsigned long long>(summary.lint_violations),
      static_cast<unsigned long long>(summary.session_cases),
      static_cast<unsigned long long>(summary.deadline_cases),
      static_cast<unsigned long long>(summary.iep_cases),
      static_cast<unsigned long long>(summary.comp_window_cases),
      static_cast<unsigned long long>(summary.twin_closure_cases),
      static_cast<unsigned long long>(summary.twin_leaf_cases),
      static_cast<unsigned long long>(summary.store_cases),
      static_cast<unsigned long long>(summary.labeled_cases),
      summary.elapsed_seconds);
  if (summary.session_cases > 0) {
    std::printf(
        "light_fuzz: session_latency p50=%.3fms p90=%.3fms p99=%.3fms "
        "max=%.3fms (n=%llu)\n",
        static_cast<double>(summary.session_latency_p50_ns) / 1e6,
        static_cast<double>(summary.session_latency_p90_ns) / 1e6,
        static_cast<double>(summary.session_latency_p99_ns) / 1e6,
        static_cast<double>(summary.session_latency_max_ns) / 1e6,
        static_cast<unsigned long long>(summary.session_cases));
  }
  // Nonzero only when the lock-rank checker is compiled in; CI greps for it
  // to prove the armed sweep actually exercised the checker.
  std::printf("light_fuzz: rank_checking=%s rank_checks=%llu\n",
              LockRankCheckingArmed() ? "armed" : "off",
              static_cast<unsigned long long>(LockRankChecksPerformed()));
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    for (const std::string& path : summary.artifacts) {
      std::fprintf(stderr, "  artifact: %s\n", path.c_str());
    }
    return 2;
  }
  return 0;
}
