#ifndef PERFBENCH_DRIVER_WORKLOADS_H_
#define PERFBENCH_DRIVER_WORKLOADS_H_

#include "util.h"

namespace perfbench {

// `perf_driver census`: see census.cc.
int RunCensus(const Flags& flags);

// `perf_driver serve`: see serve.cc (serve_hot and serve_cold).
int RunServe(const Flags& flags);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOADS_H_
