#ifndef LIGHT_FUZZ_FUZZ_H_
#define LIGHT_FUZZ_FUZZ_H_

/// Seeded differential fuzzing of the enumeration engines (tools/light_fuzz).
///
/// The repo carries four independent implementations of the same counting
/// semantics — the recursive DFS engine (serial and work-stealing parallel),
/// the CFL-like and EH-like baselines, and the BSP join engines — which makes
/// oracle-free differential testing possible: generate a random (graph,
/// pattern, config) triple, run every applicable engine, and flag any
/// disagreement in the match counts. Divergences are shrunk to a minimal
/// edge-list + pattern + config and dumped as a self-contained artifact that
/// `light_fuzz --replay` (or a unit test) reproduces exactly.
///
/// Everything is a pure function of the seed: GenerateCase(seed, i) is
/// deterministic, so any failure reproduces from the two integers printed in
/// the failure line.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/bitmap_index.h"
#include "graph/graph.h"
#include "intersect/set_intersection.h"
#include "parallel/parallel_enumerator.h"
#include "pattern/pattern.h"

namespace light::fuzz {

/// Bounds for the random-case sampler. Defaults keep single-case runtime in
/// the low milliseconds so a 10k-case sweep finishes in minutes.
struct CaseLimits {
  VertexID min_graph_vertices = 4;
  VertexID max_graph_vertices = 48;
  int min_pattern_vertices = 3;
  int max_pattern_vertices = 6;
  /// Probability that a case carries data/pattern labels. Labeled cases skip
  /// the EH/BSP oracles (those engines are unlabeled-only).
  double labeled_probability = 0.25;
  /// Probability of sampling a deliberately out-of-domain ParallelOptions
  /// field (zero donation interval, zero split size, negative chunk count):
  /// exercises ParallelOptions::Normalized() instead of the happy path.
  double hostile_config_probability = 0.2;
};

/// One self-contained differential test case: the exact graph (as an edge
/// list over dense vertex IDs), the pattern (labels included), and the full
/// engine configuration. Replaying a case requires nothing else.
struct FuzzCase {
  uint64_t seed = 0;  // the per-case seed GenerateCase derived everything from
  VertexID num_vertices = 0;
  std::vector<std::pair<VertexID, VertexID>> edges;
  Pattern pattern;
  std::vector<uint32_t> labels;  // per data vertex; empty = unlabeled
  IntersectKernel kernel = IntersectKernel::kHybrid;
  bool symmetry_breaking = true;
  /// Sampled as-is, including out-of-domain values; every engine entry point
  /// is expected to survive them via ParallelOptions::Normalized().
  ParallelOptions parallel;
  /// Bitmap-index degree threshold for the hybrid-representation oracles:
  /// 0 = index every vertex, kBitmapDegreeNever = pure-array run (also the
  /// default, so pre-bitmap artifacts replay unchanged). Values in between
  /// put the threshold inside the sampled degree range, mixing bitmap rows
  /// and array-only rows within one case.
  uint32_t bitmap_min_degree = kBitmapDegreeNever;

  bool Labeled() const { return !labels.empty(); }
  /// CSR graph over exactly num_vertices vertices (isolated tails kept).
  Graph BuildGraph() const;
  /// One-line summary for failure messages and progress logs.
  std::string Describe() const;
};

/// Deterministically generates case `index` of the run seeded `run_seed`.
FuzzCase GenerateCase(uint64_t run_seed, uint64_t index,
                      const CaseLimits& limits = {});

/// Per-engine outcome of a differential run.
struct EngineCount {
  std::string name;    // serial_light | serial_se | parallel | cfl | eh | ...
  uint64_t count = 0;
  bool skipped = false;  // engine not applicable (labeled BSP) or timed out
  std::string note;      // reason when skipped, error text on failure
};

struct OracleOutcome {
  std::vector<EngineCount> engines;
  bool divergent = false;
  /// Intersections the serial_bitmap engine routed to a bitmap kernel
  /// (AND + probe); 0 when the case disabled the index or nothing was
  /// dense enough to route.
  uint64_t bitmap_routed = 0;
  /// Static plan-lint findings (errors + warnings) over the plans the
  /// oracles executed (LIGHT and SE; analysis/plan_linter.h). Every sweep
  /// doubles as a linter soak test: a violation on a generated plan is
  /// either a planner bug or a lint false positive, and both fail the run.
  uint64_t lint_violations = 0;
  /// Per-plan diagnostics when lint_violations > 0.
  std::string lint_text;
  /// True when the session oracle ran: the case was re-submitted through a
  /// shared light::Session (interleaved with a second pattern) and its
  /// counts cross-checked against the serial pivot and a direct Run.
  bool session_checked = false;
  /// End-to-end latency (admit -> done, from RunResult::query_stats) of the
  /// case pattern's first session submission; 0 when the oracle was
  /// skipped. The driver aggregates these into a latency histogram so every
  /// fuzz sweep doubles as a serving-latency soak.
  uint64_t session_latency_ns = 0;
  /// The LIGHT or SE plan cut some candidate set to a COMP window before
  /// intersecting (ExecutionPlan::comp_windows).
  bool comp_windows = false;
  /// The LIGHT plan's leaf (ExecutionPlan::leaf) closes on a vertex b, so
  /// the serial pivot counted through its scatter.
  bool twin_closure = false;
  /// The LIGHT plan's leaf is >= 2 twins without b, so the serial pivot
  /// counted them by one binomial.
  bool twin_leaf = false;
  /// The LIGHT plan's leaf is in partition form, so the serial pivot
  /// counted it by the partition sum.
  bool partition_leaf = false;
  /// True when the storage-engine leg ran: the case graph was written as an
  /// .lcsr2 snapshot, reopened as an mmap store, and its count
  /// cross-checked against the serial pivot (bit-identical heap/mmap is the
  /// GraphStore contract).
  bool store_checked = false;
  /// True when the session oracle's random tiny-deadline submission was
  /// actually killed by its deadline (structured deadline_exceeded error).
  /// The driver counts these so a sweep provably exercises the deadline
  /// path; the alternative legal outcome is a full count identical to the
  /// pivot — anything else (partial count reported ok, unstructured error)
  /// marks the case divergent.
  bool deadline_fired = false;
  /// Multi-line per-engine count table (used in artifacts and logs).
  std::string Describe() const;
};

/// Runs every applicable engine on the case and cross-checks match counts.
/// The serial LIGHT enumerator is the pivot; any non-skipped engine whose
/// count differs marks the outcome divergent.
OracleOutcome RunOracles(const FuzzCase& c);

/// Shrinks `c` while `still_divergent` holds: drops edges, then vertices,
/// then labels, then resets config fields to defaults, repeating to a fixed
/// point. The predicate defaults to RunOracles(c).divergent; tests inject
/// synthetic predicates to validate the shrinker itself.
using DivergencePredicate = std::function<bool(const FuzzCase&)>;
FuzzCase Shrink(const FuzzCase& c, const DivergencePredicate& still_divergent);
FuzzCase Shrink(const FuzzCase& c);

/// Self-contained artifact (text, "light_fuzz_artifact v1" header): the edge
/// list, the pattern in pattern/parse.h syntax, data labels, config, and the
/// per-engine counts observed at dump time. Parse/Format round-trip exactly.
std::string FormatArtifact(const FuzzCase& c, const OracleOutcome& outcome);
Status ParseArtifact(const std::string& text, FuzzCase* out);
Status WriteArtifact(const FuzzCase& c, const OracleOutcome& outcome,
                     const std::string& path);
Status LoadArtifact(const std::string& path, FuzzCase* out);

/// Driver configuration for RunFuzz (what tools/light_fuzz parses its flags
/// into).
struct FuzzOptions {
  uint64_t seed = 1;
  uint64_t num_cases = 1000;
  /// Stop early after this many seconds (0 = run all num_cases). The smoke
  /// CI leg uses this to bound the job.
  double time_budget_seconds = 0;
  CaseLimits limits;
  /// Directory divergence artifacts are written into ("" = skip writing).
  std::string artifact_dir = ".";
  bool shrink = true;
  /// Progress line every `progress_interval` cases to stderr (0 = silent).
  uint64_t progress_interval = 0;
};

struct FuzzSummary {
  uint64_t cases_run = 0;
  uint64_t divergences = 0;
  /// Cases where the hybrid oracle actually routed >= 1 intersection to a
  /// bitmap kernel (CI asserts the smoke run exercises the bitmap path).
  uint64_t bitmap_routed_cases = 0;
  /// Total plan-lint findings across all cases (CI asserts this stays 0).
  uint64_t lint_violations = 0;
  /// Cases the session oracle ran on (CI asserts the smoke run covers the
  /// multi-query service path).
  uint64_t session_cases = 0;
  /// Cases whose random tiny-deadline session submission was killed by the
  /// deadline (OracleOutcome::deadline_fired); the rest beat the deadline
  /// and had to reproduce the pivot count exactly.
  uint64_t deadline_cases = 0;
  /// Cases whose plans carried COMP windows (CI asserts the smoke run
  /// exercises the windowed candidate computation).
  uint64_t comp_window_cases = 0;
  /// Cases whose LIGHT plan's leaf closed on a vertex b (CI asserts the
  /// smoke run exercises the closing scatter count).
  uint64_t twin_closure_cases = 0;
  /// Cases whose LIGHT plan carried a twin leaf (CI asserts the smoke run
  /// exercises the leaf binomial).
  uint64_t twin_leaf_cases = 0;
  /// Cases whose LIGHT plan carried a partition-form leaf (CI asserts the
  /// smoke run exercises the partition sum).
  uint64_t partition_leaf_cases = 0;
  /// Cases the storage-engine parity leg ran on (CI asserts the smoke run
  /// exercises the mmap store path).
  uint64_t store_cases = 0;
  /// Cases with a labeled pattern and data graph (CI asserts the smoke run
  /// exercises label filtering in COMP and MAT).
  uint64_t labeled_cases = 0;
  /// Per-case session-query latency quantiles (nanoseconds), read off the
  /// histogram the driver fills from OracleOutcome::session_latency_ns.
  uint64_t session_latency_p50_ns = 0;
  uint64_t session_latency_p90_ns = 0;
  uint64_t session_latency_p99_ns = 0;
  uint64_t session_latency_max_ns = 0;
  std::vector<std::string> artifacts;  // paths of written repro artifacts
  double elapsed_seconds = 0;
};

/// Runs the differential sweep. Returns OK when every case agreed and
/// every plan linted clean; Internal with a summary message when any
/// divergence or lint violation was found (the artifacts listed in
/// `summary` hold the shrunken repros).
Status RunFuzz(const FuzzOptions& options, FuzzSummary* summary);

}  // namespace light::fuzz

#endif  // LIGHT_FUZZ_FUZZ_H_
