#include "tenant/shard.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "core/solver_registry.h"
#include "obs/context_tracer.h"
#include "serve/event_builder.h"

namespace soc::tenant {

namespace {

// Metric names, kept in one place so tools and tests agree.
constexpr char kSubmitted[] = "submitted";
constexpr char kAccepted[] = "accepted";
constexpr char kRejectedQueueFull[] = "rejected_queue_full";
constexpr char kRejectedInvalid[] = "rejected_invalid";
constexpr char kRejectedExpired[] = "rejected_expired";
constexpr char kRejectedShutdown[] = "rejected_shutdown";
constexpr char kShedPredicted[] = "shed_predicted";
constexpr char kLateFallback[] = "late_fallback";
constexpr char kFastPathZero[] = "fast_path_zero";
constexpr char kCompleted[] = "completed";
constexpr char kDegraded[] = "degraded";
constexpr char kSolveErrors[] = "solve_errors";
constexpr char kBreakerRerouted[] = "breaker_rerouted";
constexpr char kLadderDowngraded[] = "ladder_downgraded";
constexpr char kUnknownTenant[] = "rejected_unknown_tenant";
constexpr char kCacheHits[] = "cache_hits";

}  // namespace

struct TenantShard::QueuedRequest {
  serve::SolveRequest request;
  SnapshotPtr snapshot;  // Pinned at Submit; the RCU read-side hold.
  std::promise<serve::SolveResponse> promise;
  WallTimer submit_timer;  // Started at Submit.
  Deadline deadline = Deadline::Infinite();
  double effective_deadline_ms = 0;  // After the default applied; 0 = none.
  double predicted_ms = 0;           // Cost-model charge, settled at finish.
  // Recorder time at Submit, when tracing was live then; 0 otherwise.
  // Anchors the queue_wait and request spans emitted at pickup/finish.
  std::int64_t submit_ns = 0;
};

TenantShard::TenantShard(int shard_index, TenantShardOptions options)
    : shard_index_(shard_index),
      options_(options),
      mfi_dfs_solver_([] {
        MfiSocOptions dfs;
        dfs.engine = MfiEngine::kExactDfs;
        return dfs;
      }()),
      result_cache_(options.result_cache_capacity > 0
                        ? std::make_unique<ResultCache>(
                              options.result_cache_capacity, &metrics_)
                        : nullptr),
      cost_model_(options.num_workers, options.cost_model),
      breakers_(RegisteredSolverNames(), options.breaker),
      ladder_(options.ladder),
      watchdog_(options.watchdog, &metrics_, options.trace_recorder),
      pool_(options.num_workers) {
  for (const std::string& name : RegisteredSolverNames()) {
    auto solver = CreateSolverByName(name);
    SOC_CHECK(solver.ok());
    solvers_.emplace(name, std::move(solver).value());
  }
}

TenantShard::~TenantShard() {
  // ThreadPool's shutdown drains the queue, which resolves every
  // outstanding promise through Finish before members are torn down.
  pool_.Shutdown();
}

std::size_t TenantShard::QueueSize() const {
  MutexLock lock(queue_mutex_);
  return edf_queue_.size();
}

void TenantShard::IncrementTenant(const std::string& tenant_id,
                                  const char* name) {
  if (!tenant_id.empty()) {
    metrics_.Increment("tenant." + tenant_id + "." + name);
  }
}

std::future<serve::SolveResponse> TenantShard::Submit(
    serve::SolveRequest request, SnapshotPtr snapshot) {
  // Covers validation + admission on the submitting thread; the
  // worker-side spans (queue_wait onward) anchor to submit_ns below.
  obs::TraceSpan admission(options_.trace_recorder, "admission", "serve");
  if (admission.active()) {
    admission.AddArg(obs::TraceArg::Str("id", request.id));
    admission.AddArg(obs::TraceArg::Str("tenant", request.tenant_id));
  }
  metrics_.Increment(kSubmitted);
  IncrementTenant(request.tenant_id, kSubmitted);
  if (request.solver.empty()) request.solver = "Fallback";

  auto queued = std::make_shared<QueuedRequest>();
  std::future<serve::SolveResponse> future = queued->promise.get_future();

  const auto reject = [&](Status status, const char* shed_reason = nullptr,
                          double retry_after_ms = 0) {
    serve::SolveResponse response;
    response.id = request.id;
    response.solver = request.solver;
    response.tenant_id = request.tenant_id;
    response.status = std::move(status);
    if (shed_reason != nullptr) response.shed_reason = shed_reason;
    response.retry_after_ms = retry_after_ms;
    RecordOutcome(request, response,
                  snapshot != nullptr ? snapshot->features()
                                      : serve::CostFeatures{},
                  request.deadline_ms, 0);
    queued->promise.set_value(std::move(response));
    return std::move(future);
  };

  // Validation tier: malformed requests never reach the queue. The
  // tenant comes first — width is defined by the tenant's snapshot.
  if (snapshot == nullptr) {
    metrics_.Increment(kRejectedInvalid);
    if (request.tenant_id.empty()) {
      return reject(InvalidArgumentError(
          "tenant_id is required on the sharded service"));
    }
    metrics_.Increment(kUnknownTenant);
    return reject(
        NotFoundError("unknown tenant '" + request.tenant_id + "'"));
  }
  const QueryLog& log = snapshot->log();
  if (static_cast<int>(request.tuple.size()) != log.num_attributes()) {
    metrics_.Increment(kRejectedInvalid);
    const std::string width = std::to_string(log.num_attributes());
    return reject(InvalidArgumentError(
        "tuple width " + std::to_string(request.tuple.size()) + " != " +
        (request.tenant_id.empty()
             ? "log attribute count " + width
             : "tenant '" + request.tenant_id + "' attribute count " +
                   width + " (epoch " + std::to_string(snapshot->epoch()) +
                   ")")));
  }
  if (request.m < 0) {
    metrics_.Increment(kRejectedInvalid);
    return reject(InvalidArgumentError("m must be nonnegative"));
  }
  if (request.deadline_ms < 0) {
    metrics_.Increment(kRejectedInvalid);
    return reject(InvalidArgumentError("deadline_ms must be nonnegative"));
  }
  if (solvers_.find(request.solver) == solvers_.end()) {
    metrics_.Increment(kRejectedInvalid);
    return reject(NotFoundError("unknown solver '" + request.solver +
                                "'; valid: " +
                                Join(RegisteredSolverNames(), ", ")));
  }

  // Admission tier: bound the queue, never a worker's time.
  if (options_.max_queue > 0 && QueueSize() >= options_.max_queue) {
    metrics_.Increment(kRejectedQueueFull);
    return reject(
        OverloadedError("request queue full (" +
                        std::to_string(options_.max_queue) + ")"),
        serve::kShedReasonQueueFull, cost_model_.RetryAfterMs());
  }

  double deadline_ms = request.deadline_ms;
  if (deadline_ms == 0) deadline_ms = options_.default_deadline_ms;

  // Cost-aware admission: shed now if the prediction says the deadline
  // cannot be met, instead of letting the request expire in the queue.
  // With reject_expired the whole predicted completion must fit; in
  // degrade mode only the queue wait must (a request reaching a worker
  // before expiry still gets its Fallback answer, so only a wait that
  // alone blows the deadline makes queueing pointless).
  const double predicted_solve_ms = cost_model_.PredictSolveMs(
      snapshot->features(), request.solver, request.m);
  if (options_.predictive_shedding && deadline_ms > 0) {
    const double predicted_wait_ms = cost_model_.PredictedQueueWaitMs();
    const double predicted_ms = options_.reject_expired
                                    ? predicted_wait_ms + predicted_solve_ms
                                    : predicted_wait_ms;
    if (predicted_ms > deadline_ms) {
      metrics_.Increment(kShedPredicted);
      const double retry_after_ms = cost_model_.RetryAfterMs();
      if (options_.trace_recorder != nullptr &&
          options_.trace_recorder->enabled()) {
        options_.trace_recorder->RecordInstant(
            "shed", "serve",
            {obs::TraceArg::Str("id", request.id),
             obs::TraceArg::Str("tenant", request.tenant_id),
             obs::TraceArg::Str("reason", serve::kShedReasonPredicted),
             obs::TraceArg::Num("predicted_ms", predicted_ms),
             obs::TraceArg::Num("deadline_ms", deadline_ms),
             obs::TraceArg::Num("retry_after_ms", retry_after_ms)});
      }
      return reject(OverloadedError(
                        "predicted completion " + std::to_string(predicted_ms) +
                        "ms exceeds deadline " + std::to_string(deadline_ms) +
                        "ms"),
                    serve::kShedReasonPredicted, retry_after_ms);
    }
  }

  if (deadline_ms > 0) {
    queued->deadline = Deadline::AfterSeconds(deadline_ms / 1000.0);
  }
  queued->effective_deadline_ms = deadline_ms;
  queued->predicted_ms = predicted_solve_ms;
  queued->snapshot = std::move(snapshot);
  queued->request = std::move(request);
  if (options_.trace_recorder != nullptr &&
      options_.trace_recorder->enabled()) {
    queued->submit_ns = options_.trace_recorder->NowNanos();
  }

  cost_model_.Charge(queued->predicted_ms);
  {
    MutexLock lock(inflight_mutex_);
    ++inflight_;
  }
  metrics_.Increment(kAccepted);
  IncrementTenant(queued->request.tenant_id, kAccepted);
  {
    MutexLock lock(queue_mutex_);
    edf_queue_.Push(queued->deadline, queued);
  }
  // One drainer token per queued request; RunOne pops the most urgent
  // entry, which is not necessarily the one pushed here.
  if (!pool_.Submit([this] { RunOne(); })) {
    // Shutdown raced the submit: the token was refused, so one queued
    // entry (whichever is most urgent — all of them are about to be
    // orphaned) must be resolved here to keep tokens and entries 1:1.
    std::shared_ptr<QueuedRequest> victim;
    {
      MutexLock lock(queue_mutex_);
      edf_queue_.Pop(&victim);
    }
    if (victim != nullptr) {
      metrics_.Increment(kRejectedShutdown);
      IncrementTenant(victim->request.tenant_id, kRejectedShutdown);
      cost_model_.Settle(victim->predicted_ms);
      serve::SolveResponse response;
      response.id = victim->request.id;
      response.solver = victim->request.solver;
      response.tenant_id = victim->request.tenant_id;
      response.status = OverloadedError("service shutting down");
      response.shed_reason = serve::kShedReasonShutdown;
      RecordOutcome(victim->request, response, victim->snapshot->features(),
                    victim->effective_deadline_ms, victim->predicted_ms);
      victim->promise.set_value(std::move(response));
      {
        MutexLock lock(inflight_mutex_);
        --inflight_;
      }
      inflight_cv_.NotifyAll();
    }
  }
  return future;
}

void TenantShard::Drain() {
  MutexLock lock(inflight_mutex_);
  while (inflight_ != 0) inflight_cv_.Wait(inflight_mutex_);
}

void TenantShard::RunOne() {
  std::shared_ptr<QueuedRequest> queued;
  {
    MutexLock lock(queue_mutex_);
    // Empty is legal: a shutdown-refused token's victim resolution may
    // have consumed this token's entry already.
    if (!edf_queue_.Pop(&queued)) return;
  }
  // Feed the ladder with instantaneous occupancy at every pickup; with an
  // unbounded queue, pressure is measured against one queued request per
  // worker instead.
  const double capacity = options_.max_queue > 0
                              ? static_cast<double>(options_.max_queue)
                              : static_cast<double>(pool_.num_threads());
  ladder_.Observe(static_cast<double>(QueueSize()) / capacity);
  serve::SolveResponse response = Execute(*queued);
  Finish(std::move(queued), std::move(response));
}

serve::SolveResponse TenantShard::Execute(QueuedRequest& queued) {
  const serve::SolveRequest& request = queued.request;
  const TenantSnapshot& snapshot = *queued.snapshot;
  const QueryLog& log = snapshot.log();
  serve::SolveResponse response;
  response.id = request.id;
  response.solver = request.solver;
  response.tenant_id = request.tenant_id;
  response.epoch = snapshot.epoch();
  response.queue_ms = queued.submit_timer.ElapsedMillis();
  WallTimer solve_timer;

  obs::TraceRecorder* const recorder = options_.trace_recorder;
  const bool tracing =
      recorder != nullptr && recorder->enabled() && queued.submit_ns > 0;
  if (tracing) {
    // Reconstructed on the worker thread: Submit handed off, this worker
    // picked up. Nested under the request span emitted at Finish.
    recorder->RecordComplete("queue_wait", "serve", queued.submit_ns,
                             recorder->NowNanos() - queued.submit_ns);
  }

  const auto settle = [&] { cost_model_.Settle(queued.predicted_ms); };

  // Late at pickup: never start the requested (possibly exact) solver.
  const bool expired = queued.deadline.Expired();
  if (expired && options_.reject_expired) {
    metrics_.Increment(kRejectedExpired);
    IncrementTenant(request.tenant_id, kRejectedExpired);
    response.status =
        OverloadedError("deadline expired before a worker was available");
    response.shed_reason = serve::kShedReasonExpired;
    response.retry_after_ms = cost_model_.RetryAfterMs();
    response.solve_ms = solve_timer.ElapsedMillis();
    settle();
    return response;
  }

  // Result cache: key on the pinned epoch, so a PublishEpoch between
  // Submit and pickup cannot surface another epoch's answer — and
  // conversely a stale entry from a drained epoch is unreachable here.
  // A shard without a cache builds no key and takes no cache lock.
  ResultCacheKey key;
  ResultCache::FlightPtr flight;
  if (result_cache_ != nullptr) {
    key.tenant_id = request.tenant_id;
    key.solver = request.solver;
    key.tuple_bits = request.tuple.ToString();
    key.m = request.m;
    key.epoch = snapshot.epoch();
    CachedResultPtr cached;
    {
      // The follower wait (if any) is the only blocking part of a lookup.
      obs::TraceSpan wait_span(tracing ? recorder : nullptr,
                               "result_cache_wait", "tenant");
      cached = result_cache_->Lookup(key, queued.deadline, &flight);
    }
    if (cached != nullptr) {
      // Replay: a solver's exact answers are a function of the key alone.
      response.solution = cached->solution;
      response.solver = cached->solver;
      response.cache_hit = true;
      metrics_.Increment(kCompleted);
      IncrementTenant(request.tenant_id, kCompleted);
      IncrementTenant(request.tenant_id, kCacheHits);
      if (tracing) {
        recorder->RecordInstant(
            "cache_hit", "tenant",
            {obs::TraceArg::Str("tenant", request.tenant_id),
             obs::TraceArg::Int("epoch", snapshot.epoch())});
      }
      response.solve_ms = solve_timer.ElapsedMillis();
      settle();
      return response;
    }
  }
  // Leader (or solo when the wait timed out / contention, or no cache):
  // solve below; publish only exact leader results.
  const auto abandon_if_leader = [&] {
    if (flight != nullptr) {
      result_cache_->Abandon(key, flight);
      flight = nullptr;
    }
  };

  SolveContext context(queued.deadline);
  obs::TracingPhaseListener listener(tracing ? recorder : nullptr, "solve");
  context.set_phase_listener(&listener);
  std::string solver_name = request.solver;
  if (expired) {
    // Degrade through the portfolio: the expired context stops the exact
    // tier on its first checkpoint and the greedy tier answers.
    solver_name = "Fallback";
    metrics_.Increment(kLateFallback);
  } else if (snapshot.preprocessing().MaxSatisfiable(request.tuple,
                                                     request.m) == 0) {
    // Provably zero-visible: answer from the index without a solver.
    const int m_eff =
        internal::EffectiveBudget(log, request.tuple, request.m);
    DynamicBitset selected(log.num_attributes());
    internal::PadSelection(log, request.tuple, m_eff, &selected);
    response.solution = internal::FinishSolution(log, std::move(selected),
                                                 /*proved_optimal=*/true);
    response.fast_path = true;
    metrics_.Increment(kFastPathZero);
    metrics_.Increment(kCompleted);
    IncrementTenant(request.tenant_id, kCompleted);
    metrics_.Increment("solver.none.completed");
    response.solve_ms = solve_timer.ElapsedMillis();
    // The fast-path answer is exact: publish it so the next identical
    // request doesn't even pay the bitmap scan.
    if (flight != nullptr) {
      result_cache_->Publish(key, std::move(flight),
                             CachedResult{response.solution, "none"});
    }
    settle();
    return response;
  }

  // Sustained queue pressure lowers the effective solver tier before the
  // breaker is even consulted.
  const std::string laddered =
      serve::DegradationLadder::ApplyLevel(ladder_.level(), solver_name);
  if (laddered != solver_name) {
    metrics_.Increment(kLadderDowngraded);
    response.ladder_downgraded = true;
    solver_name = laddered;
  }

  // Per-solver breaker: a tripped tier reroutes to Fallback instead of
  // running; half-open admits this request as the recovery probe.
  if (solver_name != "Fallback") {
    serve::CircuitBreaker* breaker = breakers_.Get(solver_name);
    if (breaker != nullptr && !breaker->Allow()) {
      metrics_.Increment(kBreakerRerouted);
      response.breaker_rerouted = true;
      solver_name = "Fallback";
    }
  }

  // Watchdog: a hard wall budget backstops the cooperative deadline.
  std::shared_ptr<serve::Watchdog::Ticket> ticket;
  const double wall_ms = watchdog_.WallBudgetMs(queued.effective_deadline_ms);
  if (wall_ms > 0) {
    ticket = watchdog_.Register(request.id, wall_ms);
    context.set_cancel_flag(&ticket->cancelled);
  }

  // MFI solvers run against the snapshot's preprocessing cache;
  // everything else solves directly (their per-request state is
  // self-contained).
  StatusOr<SocSolution> solution = [&]() -> StatusOr<SocSolution> {
    obs::TraceSpan solve_span(tracing ? recorder : nullptr, "solve", "serve");
    if (solve_span.active()) {
      solve_span.AddArg(obs::TraceArg::Str("solver", solver_name));
    }
    if (options_.worker_hook) {
      const serve::WorkerHookContext hook_context{
          request, solver_name, &context,
          ticket != nullptr ? &ticket->cancelled : nullptr};
      Status injected = options_.worker_hook(hook_context);
      if (!injected.ok()) return injected;
    }
    if (solver_name == "MaxFreqItemSets") {
      return mfi_walk_solver_.SolveWithIndex(
          snapshot.preprocessing().walk_index(), log, request.tuple,
          request.m, &context);
    }
    if (solver_name == "MaxFreqItemSets-dfs") {
      return mfi_dfs_solver_.SolveWithIndex(
          snapshot.preprocessing().dfs_index(), log, request.tuple,
          request.m, &context);
    }
    const auto it = solvers_.find(solver_name);
    SOC_CHECK(it != solvers_.end());
    return it->second->SolveWithContext(log, request.tuple, request.m,
                                        &context);
  }();
  response.solve_ms = solve_timer.ElapsedMillis();
  response.solver = solver_name;
  watchdog_.Unregister(ticket);
  settle();
  cost_model_.Observe(solver_name, response.solve_ms);
  serve::CircuitBreaker* const ran_breaker = breakers_.Get(solver_name);

  if (!solution.ok()) {
    response.status = solution.status();
    metrics_.Increment(kSolveErrors);
    IncrementTenant(request.tenant_id, kSolveErrors);
    metrics_.Increment("solver." + solver_name + ".errors");
    if (ran_breaker != nullptr) ran_breaker->RecordFailure();
    abandon_if_leader();
    return response;
  }
  response.solution = std::move(solution).value();
  response.degraded = IsDegraded(response.solution);
  response.stop_reason = SolutionStopReason(response.solution);
  metrics_.Increment(kCompleted);
  IncrementTenant(request.tenant_id, kCompleted);
  metrics_.Increment("solver." + solver_name + ".completed");
  if (response.degraded) {
    metrics_.Increment(kDegraded);
    metrics_.Increment("solver." + solver_name + ".degraded");
    // Partial answers are deadline artifacts, never cacheable.
    abandon_if_leader();
  } else if (flight != nullptr) {
    result_cache_->Publish(key, std::move(flight),
                           CachedResult{response.solution, solver_name});
  }
  if (ran_breaker != nullptr) {
    const bool failure =
        response.degraded && ran_breaker->options().count_degraded;
    if (failure) {
      ran_breaker->RecordFailure();
    } else {
      ran_breaker->RecordSuccess();
    }
  }
  return response;
}

void TenantShard::Finish(std::shared_ptr<QueuedRequest> queued,
                         serve::SolveResponse response) {
  obs::TraceRecorder* const recorder = options_.trace_recorder;
  const bool tracing =
      recorder != nullptr && recorder->enabled() && queued->submit_ns > 0;
  const std::int64_t response_start_ns = tracing ? recorder->NowNanos() : 0;
  std::vector<obs::TraceArg> request_args;
  if (tracing) {
    request_args = {
        obs::TraceArg::Str("id", response.id),
        obs::TraceArg::Str("tenant", response.tenant_id),
        obs::TraceArg::Str("solver", response.solver),
        obs::TraceArg::Str("status",
                           StatusCodeToString(response.status.code())),
        obs::TraceArg::Int("degraded", response.degraded),
        obs::TraceArg::Int("fast_path", response.fast_path),
        obs::TraceArg::Int("cache_hit", response.cache_hit)};
  }

  metrics_.RecordLatency("queue", response.queue_ms);
  metrics_.RecordLatency("solve", response.solve_ms);
  metrics_.RecordLatency("total", response.queue_ms + response.solve_ms);
  // Separate hit/miss latency distributions: the bench's headline
  // comparison (hit p99 vs miss p99) reads these directly.
  if (result_cache_ != nullptr && response.status.ok()) {
    metrics_.RecordLatency(response.cache_hit ? "cache_hit" : "cache_miss",
                           response.solve_ms);
  }

  // Recorded before the promise resolves (like the trace spans below):
  // a caller that drains the event log or exports the trace right after
  // Drain() must see every request's event and spans.
  RecordOutcome(queued->request, response, queued->snapshot->features(),
                queued->effective_deadline_ms, queued->predicted_ms);

  if (tracing) {
    const std::int64_t now_ns = recorder->NowNanos();
    recorder->RecordComplete("response", "serve", response_start_ns,
                             now_ns - response_start_ns);
    // The umbrella: Submit hand-off through response construction,
    // emitted on the worker thread so queue_wait/solve/response nest
    // inside it.
    recorder->RecordComplete("request", "serve", queued->submit_ns,
                             now_ns - queued->submit_ns,
                             std::move(request_args));
  }

  // The snapshot pin releases here (QueuedRequest destruction) — after
  // this, a fully-drained old epoch can be destroyed.
  queued->promise.set_value(std::move(response));
  {
    MutexLock lock(inflight_mutex_);
    --inflight_;
  }
  inflight_cv_.NotifyAll();
}

void TenantShard::RecordOutcome(const serve::SolveRequest& request,
                                const serve::SolveResponse& response,
                                const serve::CostFeatures& features,
                                double deadline_ms, double predicted_ms) {
  obs::EventLog* const log = options_.event_log;
  if (log != nullptr && log->ShouldRecord()) {
    obs::WideEvent event = serve::BuildWideEvent(request, response, features,
                                                 deadline_ms, predicted_ms);
    event.shard = shard_index_;
    log->Record(std::move(event));
  }
  obs::SloEngine* const slo = options_.slo_engine;
  if (slo != nullptr && serve::CountsTowardSlo(response.status)) {
    const std::string& tenant =
        response.tenant_id.empty() ? request.tenant_id : response.tenant_id;
    slo->RecordOutcome(tenant.empty() ? "default" : tenant,
                       response.status.ok(),
                       response.queue_ms + response.solve_ms);
  }
}

serve::MetricsSnapshot TenantShard::Metrics() const {
  serve::MetricsSnapshot snapshot = metrics_.Snapshot();
  breakers_.ForEach(
      [&](const std::string& name, const serve::CircuitBreaker& breaker) {
        snapshot.counters["breaker." + name + ".trips"] = breaker.trips();
        snapshot.gauges["breaker." + name + ".state"] =
            static_cast<double>(static_cast<int>(breaker.state()));
      });
  snapshot.gauges["queue_depth"] = static_cast<double>(QueueSize());
  snapshot.gauges["busy_workers"] = static_cast<double>(pool_.busy_workers());
  {
    MutexLock lock(inflight_mutex_);
    snapshot.gauges["inflight"] = static_cast<double>(inflight_);
  }
  snapshot.gauges["ladder.level"] = static_cast<double>(ladder_.level());
  snapshot.gauges["predicted_backlog_ms"] = cost_model_.BacklogMs();
  snapshot.gauges["watchdog.watched"] =
      static_cast<double>(watchdog_.watched());
  if (result_cache_ != nullptr) {
    snapshot.gauges["result_cache.entries"] =
        static_cast<double>(result_cache_->size());
  }
  // Cumulative pool time split: wait vs work. Exposed as gauges because
  // they are doubles, but both only grow.
  snapshot.gauges["pool.queue_wait_ms_total"] = pool_.total_queue_wait_ms();
  snapshot.gauges["pool.execute_ms_total"] = pool_.total_execute_ms();
  return snapshot;
}

}  // namespace soc::tenant
