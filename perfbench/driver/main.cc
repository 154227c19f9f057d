// perf_driver: the measuring half of the benchmark (perfbench/run.py is
// the other half). Subcommands:
//
//   perf_driver gen    --workload W --seed N --out DIR
//   perf_driver census --dir DIR --seconds S --trace 0|1 --seed N
//                      --out RAW.json [--spans SPANS.json]
//   perf_driver serve  --workload serve_hot|serve_cold --dir DIR
//                      --server PATH --seconds S --trace 0|1
//                      --low-qps R --mid-qps R --window W --sat-requests N
//                      --replay N --work DIR --out RAW.json
//                      [--spans SPANS.json]
//
// Each writes raw samples as JSON; run.py turns them into metrics.

#include <cstdio>
#include <cstring>
#include <string>

#include "inputs.h"
#include "util.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perf_driver gen|census|serve --flag value...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const Flags flags(argc, argv, 2);
  if (cmd == "gen") {
    return GenerateInputs(flags.Get("workload"),
                          static_cast<uint64_t>(flags.Need("seed")),
                          flags.Get("out"))
               ? 0
               : 1;
  }
  if (cmd == "census") return RunCensus(flags);
  if (cmd == "serve") return RunServe(flags);
  std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
  return 2;
}
