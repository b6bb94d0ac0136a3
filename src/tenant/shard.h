// TenantShard: the one request pipeline of the serving layer. Every
// request — single-tenant through the VisibilityService facade
// (serve/visibility_service.h), multi-tenant through ShardedService
// (tenant/sharded_service.h) — is admitted, queued, solved and recorded
// here, against the TenantSnapshot (log, preprocessing, cost features)
// its caller hands in, so one shard serves any number of tenants.
//
// Admission. Submit() is non-blocking and always returns a future:
//  * malformed requests (unresolved tenant, wrong tuple width, negative
//    m / deadline, unknown solver) resolve at once with a typed error;
//  * at max_queue queued requests, a request is load-shed with
//    StatusCode::kOverloaded — it never occupies a worker;
//  * cost-aware predictive shedding: the CostModel predicts queue wait
//    and solve time from the snapshot's features; a request whose
//    deadline the prediction says cannot be met is shed with
//    kOverloaded, a shed_reason and a retry_after_ms hint sized to the
//    backlog, instead of expiring in the queue;
//  * accepted requests wait in an earliest-deadline-first queue
//    (serve/edf_queue.h), FIFO among equal (and absent) deadlines;
//  * the deadline (deadline_ms from Submit) is threaded into the solve's
//    SolveContext, so a long solve degrades to a partial solution;
//  * a request already expired at pickup is rejected with kOverloaded
//    (reject_expired) or downgraded to the Fallback greedy tier.
//
// At pickup a DegradationLadder downgrades exact tiers under sustained
// queue pressure, per-solver CircuitBreakers reroute a faulting tier to
// Fallback, and a Watchdog cancels solves wedged past a wall-time
// multiple of their deadline (serve/degradation_ladder.h,
// circuit_breaker.h, watchdog.h).
//
// Tenancy is data, not a mode: a request pins its snapshot for its
// whole lifetime (a PublishEpoch that swaps the registry slot meanwhile
// does not change its answer; the response carries the pinned epoch, 0 =
// untenanted); with result_cache_capacity > 0 a ResultCache keyed
// (tenant, solver, tuple, m, epoch) replays repeated traffic,
// single-flighting concurrent misses; a non-empty tenant id also bumps
// `tenant.<id>.<counter>` for the submitted/accepted/completed/
// solve_errors/rejected_expired/rejected_shutdown ledger the chaos
// harness audits per tenant.
//
// Every outcome is counted in a ServeMetrics registry and recorded as
// one wide event (stamped with the shard index; -1 = unsharded) and SLO
// outcome. Thread-safety: Submit/Drain/Metrics from any thread; the
// destructor drains.

#ifndef SOC_TENANT_SHARD_H_
#define SOC_TENANT_SHARD_H_

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/mfi_solver.h"
#include "core/solver.h"
#include "obs/event_log.h"
#include "obs/slo.h"
#include "obs/trace_recorder.h"
#include "serve/circuit_breaker.h"
#include "serve/cost_model.h"
#include "serve/degradation_ladder.h"
#include "serve/edf_queue.h"
#include "serve/metrics.h"
#include "serve/request.h"
#include "serve/watchdog.h"
#include "tenant/result_cache.h"
#include "tenant/snapshot.h"

namespace soc::tenant {

struct TenantShardOptions {
  int num_workers = 2;
  std::size_t max_queue = 256;  // 0 = unbounded.
  // Entries in the shard's result cache; 0 = no cache.
  std::size_t result_cache_capacity = 4096;
  double default_deadline_ms = 0;
  bool reject_expired = false;
  bool predictive_shedding = true;
  serve::CostModelOptions cost_model;
  serve::CircuitBreakerOptions breaker;
  serve::DegradationLadderOptions ladder;
  serve::WatchdogOptions watchdog;
  // Non-owning; must outlive the shard. nullptr disables tracing.
  obs::TraceRecorder* trace_recorder = nullptr;
  // Non-owning; must outlive the shard. Every outcome is recorded as a
  // wide event stamped with this shard's index and the pinned epoch.
  // Typically shared across all shards of one ShardedService.
  obs::EventLog* event_log = nullptr;
  // Non-owning; must outlive the shard. Receives every non-invalid
  // outcome keyed by tenant ("default" for the empty id); shared across
  // shards so burn rates are service-wide per tenant.
  obs::SloEngine* slo_engine = nullptr;
  // See serve::WorkerHookContext; empty disables the hook.
  serve::WorkerHook worker_hook;
};

class TenantShard {
 public:
  // `shard_index` stamps wide events; -1 marks an unsharded service.
  TenantShard(int shard_index, TenantShardOptions options);
  ~TenantShard();

  TenantShard(const TenantShard&) = delete;
  TenantShard& operator=(const TenantShard&) = delete;

  // Non-blocking; solves `request` against `snapshot`, which the caller
  // resolved for request.tenant_id (ShardedService routes; direct
  // callers are trusted). A null snapshot means the tenant could not be
  // resolved: the request is rejected with kInvalidArgument (empty
  // tenant id) or kNotFound (unknown tenant).
  std::future<serve::SolveResponse> Submit(serve::SolveRequest request,
                                           SnapshotPtr snapshot)
      SOC_EXCLUDES(inflight_mutex_, queue_mutex_);

  // Blocks until every accepted request has resolved.
  void Drain() SOC_EXCLUDES(inflight_mutex_);

  int num_workers() const { return pool_.num_threads(); }

  // Shard-local counters/histograms plus the usual gauge set (queue
  // depth, busy workers, inflight, ladder level, breaker states,
  // result-cache residency). ShardedService merges these across shards.
  serve::MetricsSnapshot Metrics() const
      SOC_EXCLUDES(inflight_mutex_, queue_mutex_);

 private:
  struct QueuedRequest;

  void RunOne() SOC_EXCLUDES(queue_mutex_);
  serve::SolveResponse Execute(QueuedRequest& queued);
  void Finish(std::shared_ptr<QueuedRequest> queued,
              serve::SolveResponse response) SOC_EXCLUDES(inflight_mutex_);
  std::size_t QueueSize() const SOC_EXCLUDES(queue_mutex_);
  // Bumps `tenant.<id>.<name>`; a no-op for the empty (untenanted) id.
  void IncrementTenant(const std::string& tenant_id, const char* name);
  // Records the wide event (stamped with this shard's index and the
  // snapshot's features) and SLO outcome for one resolved request;
  // called on every path that resolves a promise.
  void RecordOutcome(const serve::SolveRequest& request,
                     const serve::SolveResponse& response,
                     const serve::CostFeatures& features, double deadline_ms,
                     double predicted_ms);

  const int shard_index_;
  const TenantShardOptions options_;
  // Registered solver instances, built once; SocSolver::SolveWithContext
  // is const, so one instance serves all workers.
  std::unordered_map<std::string, std::unique_ptr<SocSolver>> solvers_;
  // Dedicated MFI solver instances whose solves run against the
  // snapshot's preprocessing cache instead of mining per request.
  MfiSocSolver mfi_walk_solver_;
  MfiSocSolver mfi_dfs_solver_;
  serve::ServeMetrics metrics_;
  const std::unique_ptr<ResultCache> result_cache_;  // nullptr = no cache.
  serve::CostModel cost_model_;
  serve::BreakerPanel breakers_;
  serve::DegradationLadder ladder_;

  mutable Mutex queue_mutex_{lock_rank::kShardQueue};
  serve::EdfQueue<std::shared_ptr<QueuedRequest>> edf_queue_
      SOC_GUARDED_BY(queue_mutex_);

  mutable Mutex inflight_mutex_{lock_rank::kShardInflight};
  CondVar inflight_cv_;
  std::int64_t inflight_ SOC_GUARDED_BY(inflight_mutex_) = 0;

  serve::Watchdog watchdog_;  // Before pool_: workers hold tickets.
  ThreadPool pool_;  // Last member: workers must die before state above.
};

}  // namespace soc::tenant

#endif  // SOC_TENANT_SHARD_H_
