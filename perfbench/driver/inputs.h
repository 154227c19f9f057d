#ifndef PERFBENCH_DRIVER_INPUTS_H_
#define PERFBENCH_DRIVER_INPUTS_H_

// Workload inputs. `perf_driver gen` writes them from a seed; every other
// subcommand reads them back, so the program under test only ever sees the
// generated .lcsr2 snapshots and request streams.

#include <cstdint>
#include <string>
#include <vector>

#include "pattern/pattern.h"

namespace perfbench {

// One request of a stream: a pattern edge list plus the matching options
// the wire protocol carries. `key` groups requests with the same expected
// count (isomorphic relabelings of one shape under the same options).
struct StreamRequest {
  int key = 0;
  bool unique = true;
  bool induced = false;
  light::Pattern pattern;
};

// One census query: which snapshot and which catalog pattern.
struct CensusQuery {
  std::string graph;    // "web" | "social"
  std::string pattern;  // catalog name
};

// The fixed census list (the same for every seed; the graphs vary).
const std::vector<CensusQuery>& CensusList();

// Writes the inputs of `workload` for `seed` into `dir` (which must exist).
// Returns false with a message on stderr on failure.
bool GenerateInputs(const std::string& workload, uint64_t seed,
                    const std::string& dir);

bool LoadStream(const std::string& path, std::vector<StreamRequest>* out);

// Edge list flattened as the wire protocol wants it (u0 v0 u1 v1 ...).
std::vector<uint32_t> FlatEdges(const light::Pattern& pattern);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_INPUTS_H_
