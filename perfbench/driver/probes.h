#ifndef PERFBENCH_DRIVER_PROBES_H_
#define PERFBENCH_DRIVER_PROBES_H_

// Per-layer probes of the traced run: each one times the public entry point
// of one layer on the workload's own inputs, outside every timed phase.

#include <string>
#include <vector>

#include "light.h"
#include "util.h"

namespace perfbench {

struct ProbeQuery {
  light::Pattern pattern;
  bool unique = true;
  bool induced = false;
};

// Times GraphStore::Open (`mode`), ComputeGraphStats, BitmapIndex::Build,
// BuildRunPlan + LintPlan over `queries`, the intersection kernels over
// neighbour-list pairs, and the wire codec. Each store path contributes to
// the storage/graph numbers (summed per repetition); plans are built
// against the first store. Returns a JSON object of named samples.
std::string RunLayerProbes(const std::vector<std::string>& store_paths,
                           light::GraphStore::Mode mode,
                           const std::vector<ProbeQuery>& queries,
                           SpanRecorder* spans);

// JSON object of one query's lifecycle and (when `report` is non-null) its
// engine / intersect / worker counters.
std::string QueryRecordJson(const light::RunResult& result,
                            const light::obs::RunReport* report,
                            double wall_ms, int threads);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_PROBES_H_
