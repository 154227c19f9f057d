#include "fuzz/fuzz.h"

#include <cstdio>

#include "common/timer.h"
#include "obs/metrics.h"

namespace light::fuzz {

Status RunFuzz(const FuzzOptions& options, FuzzSummary* summary) {
  *summary = FuzzSummary();
  Timer timer;
  // Per-case session-oracle latency: the sweep doubles as a serving-latency
  // soak, summarized as quantiles in the run's summary line.
  obs::Histogram session_latency("fuzz.session_query_ns");
  for (uint64_t i = 0; i < options.num_cases; ++i) {
    if (options.time_budget_seconds > 0 &&
        timer.ElapsedSeconds() >= options.time_budget_seconds) {
      break;
    }
    const FuzzCase c = GenerateCase(options.seed, i, options.limits);
    const OracleOutcome outcome = RunOracles(c);
    ++summary->cases_run;
    if (outcome.bitmap_routed > 0) ++summary->bitmap_routed_cases;
    if (outcome.iep_checked) ++summary->iep_cases;
    if (outcome.comp_windows) ++summary->comp_window_cases;
    if (outcome.twin_closure) ++summary->twin_closure_cases;
    if (outcome.twin_leaf) ++summary->twin_leaf_cases;
    if (outcome.store_checked) ++summary->store_cases;
    if (!c.labels.empty()) ++summary->labeled_cases;
    if (outcome.session_checked) {
      ++summary->session_cases;
      session_latency.Observe(outcome.session_latency_ns);
      if (outcome.deadline_fired) ++summary->deadline_cases;
    }
    if (outcome.lint_violations > 0) {
      summary->lint_violations += outcome.lint_violations;
      std::fprintf(stderr, "light_fuzz: LINT VIOLATION at case %llu (%s)\n%s",
                   static_cast<unsigned long long>(i), c.Describe().c_str(),
                   outcome.lint_text.c_str());
    }
    if (options.progress_interval > 0 &&
        (i + 1) % options.progress_interval == 0) {
      std::fprintf(stderr, "light_fuzz: %llu/%llu cases, %llu divergences\n",
                   static_cast<unsigned long long>(i + 1),
                   static_cast<unsigned long long>(options.num_cases),
                   static_cast<unsigned long long>(summary->divergences));
    }
    if (!outcome.divergent) continue;

    ++summary->divergences;
    std::fprintf(stderr,
                 "light_fuzz: DIVERGENCE at case %llu (%s)\n%s",
                 static_cast<unsigned long long>(i), c.Describe().c_str(),
                 outcome.Describe().c_str());
    FuzzCase repro = c;
    if (options.shrink) {
      repro = Shrink(c);
      std::fprintf(stderr, "light_fuzz: shrunk to %s\n",
                   repro.Describe().c_str());
    }
    if (!options.artifact_dir.empty()) {
      const std::string path = options.artifact_dir + "/divergence_seed" +
                               std::to_string(options.seed) + "_case" +
                               std::to_string(i) + ".txt";
      const OracleOutcome repro_outcome = RunOracles(repro);
      if (Status s = WriteArtifact(repro, repro_outcome, path); !s.ok()) {
        std::fprintf(stderr, "light_fuzz: %s\n", s.ToString().c_str());
      } else {
        summary->artifacts.push_back(path);
        std::fprintf(stderr, "light_fuzz: artifact written to %s\n",
                     path.c_str());
      }
    }
  }
  summary->elapsed_seconds = timer.ElapsedSeconds();
  const obs::Histogram::Snapshot latencies = session_latency.Snap();
  summary->session_latency_p50_ns = latencies.P50();
  summary->session_latency_p90_ns = latencies.P90();
  summary->session_latency_p99_ns = latencies.P99();
  summary->session_latency_max_ns = latencies.Max();
  if (summary->divergences > 0 || summary->lint_violations > 0) {
    return Status::Internal(
        std::to_string(summary->divergences) + " divergence(s) and " +
        std::to_string(summary->lint_violations) +
        " plan-lint violation(s) in " + std::to_string(summary->cases_run) +
        " cases (seed " + std::to_string(options.seed) + ")");
  }
  return Status::OK();
}

}  // namespace light::fuzz
