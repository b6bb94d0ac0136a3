// Per-layer timings for the traced run, measured only from the benchmark's
// side: on a fixed sample of the workload's requests, each module's public
// functions are called directly on that request's own inputs, one span
// per call. Until the program carries spans of its own, a layer's share
// of a solve is estimated from its standalone call time here and the
// standalone solve time core.solve_ms.<solver>.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "loadgen.h"
#include "workloads.h"

namespace perfbench {

// Sampled requests: this many deck entries, evenly spaced through the
// deck's request lines in sorted order. The MFI miners (a second or more
// a call on exact_paper's log at some thresholds) run on the first
// kMiningSample of them.
inline constexpr int kLayerSample = 16;
inline constexpr int kMiningSample = 4;
// Wall-time budget of one MFI mining call.
inline constexpr double kMiningBudgetS = 2.0;

// The solvers named by core.solve_ms.<solver>, in report order.
const std::vector<std::string>& ReportedSolvers();

// Adds the boolean.*, kernels.*, core.*, itemsets.* and lp.* metrics to
// `metrics`; a metric a workload does not exercise is set to 0 and its
// reason appended to `absent`. Caveats on the values go to `notes`.
void MeasureLayers(const Workload& workload, SpanLog* spans,
                   std::map<std::string, double>* metrics,
                   std::map<std::string, std::string>* absent,
                   std::vector<std::string>* notes);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
