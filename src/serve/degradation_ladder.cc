#include "serve/degradation_ladder.h"

namespace soc::serve {

DegradationLadder::DegradationLadder(DegradationLadderOptions options)
    : options_(options) {}

int DegradationLadder::Observe(double occupancy) {
  if (occupancy < 0) occupancy = 0;
  if (occupancy > 1) occupancy = 1;
  MutexLock lock(mutex_);
  if (!seeded_) {
    ewma_ = occupancy;
    seeded_ = true;
  } else {
    ewma_ = options_.ewma_alpha * occupancy +
            (1.0 - options_.ewma_alpha) * ewma_;
  }
  // Hysteresis: one step per crossing, so the ladder ratchets rather than
  // jumping — sustained pressure is what moves it, not a single sample.
  if (ewma_ >= options_.high_watermark && level_ < options_.max_level) {
    ++level_;
    // Re-arm: the EWMA must climb back over the watermark from the
    // midpoint to take another step, spacing out consecutive climbs.
    ewma_ = (options_.high_watermark + options_.low_watermark) / 2.0;
  } else if (ewma_ <= options_.low_watermark && level_ > 0) {
    --level_;
    ewma_ = (options_.high_watermark + options_.low_watermark) / 2.0;
  }
  return level_;
}

int DegradationLadder::level() const {
  MutexLock lock(mutex_);
  return level_;
}

double DegradationLadder::smoothed_occupancy() const {
  MutexLock lock(mutex_);
  return ewma_;
}

std::string DegradationLadder::ApplyLevel(int level,
                                          const std::string& requested) {
  if (level <= 0) return requested;
  // The greedies are the cheapest tier there is. Fallback runs exact
  // BranchAndBound first, so sending them there would make them slower.
  if (requested == "ConsumeAttr" || requested == "ConsumeAttrCumul" ||
      requested == "ConsumeQueries") {
    return requested;
  }
  if (level == 1) {
    // Exact tiers are the ones that can hold a worker for seconds.
    if (requested == "BruteForce" || requested == "BranchAndBound" ||
        requested == "ILP") {
      return "Fallback";
    }
    return requested;
  }
  // Level >= 2: mining runs no more either.
  return "Fallback";
}

}  // namespace soc::serve
