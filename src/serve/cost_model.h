// CostModel: a cheap per-request solve-cost estimator for cost-aware
// admission control.
//
// The model blends two signals per solver tier:
//  * a static prior built from instance features — |Q|, attribute count,
//    the log's collapse ratio (distinct / total queries, the weighted-
//    instance compression the paper exploits) and a per-solver tier
//    multiplier reflecting the portfolio's cost ladder (greedy tiers in
//    microseconds, exact tiers potentially exponential);
//  * an EWMA of observed solve times, which takes over as real samples
//    arrive — the learned half of the ROADMAP's learned-dispatcher item.
//
// It also tracks a predicted-backlog accumulator: every admitted request
// adds its predicted cost, every finished request removes it, so
// PredictedQueueWaitMs() estimates how long a new arrival waits for a
// worker. Admission sheds proactively when predicted wait (+ predicted
// solve) exceeds the request's deadline, instead of letting the request
// expire in the queue.
//
// Thread-safe: the EWMA table is mutex-guarded (solver-name keyed, low
// write rate); the backlog is a lock-free atomic microsecond counter on
// the submit/finish hot path.

#ifndef SOC_SERVE_COST_MODEL_H_
#define SOC_SERVE_COST_MODEL_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace soc::serve {

struct CostModelOptions {
  // EWMA smoothing factor for observed solve times.
  double ewma_alpha = 0.2;
  // Observations before the EWMA fully replaces the prior; below this the
  // prediction blends linearly between the two.
  std::int64_t warmup_samples = 8;
};

// Static per-instance features, computed once per TenantSnapshot
// (tenant/snapshot.h) and passed with every prediction, so one model
// serves every log its shard hosts.
struct CostFeatures {
  int num_queries = 0;
  int num_attributes = 0;
  double collapse_ratio = 1.0;  // distinct queries / total queries, in (0,1].
};

class CostModel {
 public:
  explicit CostModel(int num_workers, CostModelOptions options = {});

  // Predicted solve cost for one request on `solver` against a log with
  // `features`, in milliseconds. `m` scales the prior mildly (larger
  // budgets mean more search).
  double PredictSolveMs(const CostFeatures& features,
                        const std::string& solver, int m) const
      SOC_EXCLUDES(mutex_);

  // Predicted time a new arrival spends waiting for a worker, derived
  // from the outstanding predicted backlog spread across the pool.
  double PredictedQueueWaitMs() const;

  // Outstanding predicted work (admitted, not yet finished), milliseconds.
  double BacklogMs() const;

  // Admission bookkeeping: Charge when a request is admitted with its
  // predicted cost, Settle when it finishes (same amount, so the backlog
  // returns to zero when the queue drains).
  void Charge(double predicted_ms);
  void Settle(double predicted_ms);

  // Feeds one observed solve time into the solver's EWMA.
  void Observe(const std::string& solver, double solve_ms)
      SOC_EXCLUDES(mutex_);

  // Suggested client back-off for a shed request: roughly the time for
  // half the current backlog to drain, floored at 1ms.
  double RetryAfterMs() const;

 private:
  struct Ewma {
    double value_ms = 0;
    std::int64_t samples = 0;
  };

  static double PriorMs(const CostFeatures& features,
                        const std::string& solver, int m);

  const int num_workers_;
  const CostModelOptions options_;

  mutable Mutex mutex_{lock_rank::kCostModel};
  std::map<std::string, Ewma> observed_ SOC_GUARDED_BY(mutex_);

  // Predicted backlog in microseconds; atomic so the Submit hot path
  // never takes mutex_.
  std::atomic<std::int64_t> backlog_us_{0};
};

}  // namespace soc::serve

#endif  // SOC_SERVE_COST_MODEL_H_
