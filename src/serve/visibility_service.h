// VisibilityService: the single-tenant serving layer for SOC-CB-QL —
// one query log (the paper's Q), a PreprocessingCache amortizing MFI
// mining and attribute bitmaps across requests, and a fixed pool of
// solver workers.
//
// It is a facade over the one request pipeline, tenant::TenantShard
// (tenant/shard.h), which holds the whole contract: typed validation
// errors, the queue bound, cost-aware predictive shedding, the EDF
// queue, deadline-threaded solves with the late-request Fallback
// rescue, the degradation ladder, per-solver circuit breakers, the
// watchdog, and a wide event + SLO outcome per request. The facade owns
// one TenantSnapshot of its log (tenant "", epoch 0) and one shard
// (index -1, no result cache), so single-tenant responses and events
// carry no tenant id, epoch, shard index or cache_hit bit.
//
// Thread-safety: Submit/Drain/Metrics may be called from any thread.
// Drain() waits for every accepted request to resolve; the destructor
// drains implicitly.

#ifndef SOC_SERVE_VISIBILITY_SERVICE_H_
#define SOC_SERVE_VISIBILITY_SERVICE_H_

#include <future>
#include <utility>

#include "boolean/query_log.h"
#include "obs/event_log.h"
#include "obs/slo.h"
#include "obs/trace_recorder.h"
#include "serve/circuit_breaker.h"
#include "serve/cost_model.h"
#include "serve/degradation_ladder.h"
#include "serve/metrics.h"
#include "serve/request.h"
#include "serve/watchdog.h"
#include "tenant/shard.h"
#include "tenant/snapshot.h"

namespace soc::serve {

struct VisibilityServiceOptions {
  int num_workers = 4;
  // Admission bound on queued-but-unclaimed requests; 0 = unbounded.
  std::size_t max_queue = 1024;
  // Per-engine LRU capacity of the shared MFI threshold cache.
  std::size_t mfi_cache_capacity = 32;
  // Applied when a request's deadline_ms is 0; 0 = no deadline.
  double default_deadline_ms = 0;
  // Late policy: reject already-expired requests with kOverloaded instead
  // of degrading them through the Fallback tier.
  bool reject_expired = false;
  // Cost-aware admission: shed a request at Submit when the cost model
  // predicts its deadline cannot be met (see tenant/shard.h). Disable
  // to fall back to pure queue-bound admission.
  bool predictive_shedding = true;
  CostModelOptions cost_model;
  CircuitBreakerOptions breaker;
  DegradationLadderOptions ladder;
  WatchdogOptions watchdog;
  // Non-owning; must outlive the service. When set and enabled, every
  // request emits nested admission → queue_wait → solve → response spans
  // (plus solver-internal phases via the context's PhaseListener).
  // nullptr disables tracing entirely.
  obs::TraceRecorder* trace_recorder = nullptr;
  // Non-owning; must outlive the service. When set and enabled, every
  // request outcome (completions, sheds, rejects) is recorded as one
  // wide event (obs/wide_event.h) carrying the request's features,
  // latencies and outcome bits. nullptr disables event logging.
  obs::EventLog* event_log = nullptr;
  // Non-owning; must outlive the service. When set, every non-invalid
  // outcome is recorded against the request's tenant ("default" when
  // the request carries no tenant_id) for burn-rate evaluation.
  obs::SloEngine* slo_engine = nullptr;
  // See WorkerHookContext; empty disables the hook.
  WorkerHook worker_hook;
};

class VisibilityService {
 public:
  // The service copies the log once and shares it with every worker.
  explicit VisibilityService(QueryLog log,
                             VisibilityServiceOptions options = {});

  VisibilityService(const VisibilityService&) = delete;
  VisibilityService& operator=(const VisibilityService&) = delete;

  // Non-blocking; see TenantShard::Submit for the admission contract.
  std::future<SolveResponse> Submit(SolveRequest request) {
    return shard_.Submit(std::move(request), snapshot_);
  }

  // Blocks until every accepted request has resolved. New Submits during
  // Drain are legal; Drain returns once the in-flight count hits zero.
  void Drain() { shard_.Drain(); }

  const QueryLog& log() const { return snapshot_->log(); }
  int num_workers() const { return shard_.num_workers(); }

  // The shard's live counters and gauges (queue depth, busy workers,
  // in-flight requests, breaker states, ladder level, predicted backlog,
  // cumulative pool queue-wait/execute time) plus the MFI cache's
  // hit/miss/eviction counters and residency gauges.
  MetricsSnapshot Metrics() const;

 private:
  const tenant::SnapshotPtr snapshot_;  // Before shard_: requests pin it.
  tenant::TenantShard shard_;
};

}  // namespace soc::serve

#endif  // SOC_SERVE_VISIBILITY_SERVICE_H_
