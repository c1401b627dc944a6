// Workload entry points. Each fills `report` with its end-to-end metrics
// and, when args.trace is set, the per-layer metrics of its traced run.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

void RunDiscoverOutage(const Args& args, Report* report);
void RunServeLongHistory(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
