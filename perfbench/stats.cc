#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

// 1-based nearest rank of percentile q among n samples.
std::size_t Rank(std::size_t n, double q) {
  const double exact = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(exact, 1.0)),
                                 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  const std::size_t rank = Rank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

Tail TailOf(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  for (const double p : {99.0, 95.0, 90.0}) {
    const std::size_t rank = Rank(n, p / 100);
    if (n - rank >= kMinSamplesBeyondTail) {
      tail.value = samples[rank - 1];
      tail.percentile = p;
      tail.beyond = n - rank;
      return tail;
    }
  }
  tail.value = samples.back();
  tail.percentile = 100;
  tail.beyond = 0;
  return tail;
}

}  // namespace perfbench
