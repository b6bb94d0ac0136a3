// DegradationLadder: graceful quality degradation under sustained queue
// pressure.
//
// The ladder watches queue occupancy (queued / max_queue, sampled at
// every worker pickup) through an EWMA and maps the smoothed pressure to
// a degradation level with hysteresis — the level climbs when smoothed
// occupancy crosses the high watermark and only descends once it falls
// below the low watermark, so brief bursts don't flap the service's
// solver tier.
//
// Level semantics (applied by TenantShard at pickup):
//   0  serve every request with its requested solver;
//   1  exact tiers (BruteForce, BranchAndBound, ILP) downgrade to
//      Fallback — mining and greedy tiers still run as requested;
//   2  every request but a greedy one (ConsumeAttr, ConsumeAttrCumul,
//      ConsumeQueries) downgrades to Fallback.
// No level touches a greedy request: Fallback's first tier is exact
// BranchAndBound, which costs far more than the greedy it would replace.
//
// Thread-safe; Observe is called concurrently from workers.

#ifndef SOC_SERVE_DEGRADATION_LADDER_H_
#define SOC_SERVE_DEGRADATION_LADDER_H_

#include <string>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace soc::serve {

struct DegradationLadderOptions {
  // Smoothed occupancy that pushes the ladder up one level.
  double high_watermark = 0.75;
  // Smoothed occupancy that lets the ladder descend one level.
  double low_watermark = 0.25;
  // EWMA smoothing factor for the occupancy samples.
  double ewma_alpha = 0.2;
  // Highest level the ladder can reach; 0 disables degradation.
  int max_level = 2;
};

class DegradationLadder {
 public:
  explicit DegradationLadder(DegradationLadderOptions options = {});

  // Feeds one instantaneous occupancy sample in [0,1]; returns the level
  // in force after the update.
  int Observe(double occupancy) SOC_EXCLUDES(mutex_);

  int level() const SOC_EXCLUDES(mutex_);
  double smoothed_occupancy() const SOC_EXCLUDES(mutex_);

  // The solver that should run at `level` for a request that asked for
  // `requested`; returns `requested` itself when the level leaves it
  // alone. Exposed for tests and for the service's pickup path.
  static std::string ApplyLevel(int level, const std::string& requested);

 private:
  const DegradationLadderOptions options_;
  mutable Mutex mutex_{lock_rank::kDegradationLadder};
  double ewma_ SOC_GUARDED_BY(mutex_) = 0;
  bool seeded_ SOC_GUARDED_BY(mutex_) = false;
  int level_ SOC_GUARDED_BY(mutex_) = 0;
};

}  // namespace soc::serve

#endif  // SOC_SERVE_DEGRADATION_LADDER_H_
