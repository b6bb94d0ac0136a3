// Order statistics the benchmark reports: nearest-rank percentiles and
// the tail rule (the highest of p99/p95/p90 that still has at least ten
// samples beyond it, so a tail is never read off a handful of points).

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

// Samples a tail must leave beyond itself to be reported.
inline constexpr std::size_t kMinSamplesBeyondTail = 10;

// Nearest-rank percentile, q in [0, 1]: the ceil(q*n)-th smallest
// sample (the smallest for q = 0). 0 for an empty input.
double Percentile(std::vector<double> samples, double q);

double Median(std::vector<double> samples);

struct Tail {
  double value = 0;
  double percentile = 0;  // 99, 95 or 90; 100 (the maximum) as last resort.
  std::size_t beyond = 0;  // Samples ranked above the reported one.
  std::size_t samples = 0;
};

// The highest of p99, p95 and p90 with at least kMinSamplesBeyondTail
// samples beyond it. With fewer than 100 samples none qualifies and the
// maximum is returned as percentile 100 with 0 beyond; callers size
// their runs so that does not happen.
Tail TailOf(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
