// Builds wide events (obs/wide_event.h) from serve-layer request and
// response types for the request pipeline (tenant/shard.h), with one
// outcome classification for every path:
//
//   ok      — status.ok(): a solution was served (degraded or cached
//             answers included);
//   shed    — kOverloaded: admission or pickup load-shedding;
//   invalid — kInvalidArgument / kNotFound: a client error, excluded
//             from the tenant's SLO (a malformed request is not the
//             service failing the tenant);
//   error   — everything else (solver faults, watchdog cancels, ...).

#ifndef SOC_SERVE_EVENT_BUILDER_H_
#define SOC_SERVE_EVENT_BUILDER_H_

#include <string>

#include "common/status.h"
#include "obs/wide_event.h"
#include "serve/cost_model.h"
#include "serve/request.h"

namespace soc::serve {

inline const char* WideEventOutcome(const Status& status) {
  if (status.ok()) return "ok";
  switch (status.code()) {
    case StatusCode::kOverloaded:
      return "shed";
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
      return "invalid";
    default:
      return "error";
  }
}

// True for outcomes the SLO engine records: everything except client
// errors.
inline bool CountsTowardSlo(const Status& status) {
  return status.ok() || (status.code() != StatusCode::kInvalidArgument &&
                         status.code() != StatusCode::kNotFound);
}

// ts_ms is stamped by EventLog::Record; shard defaults to -1 (unsharded)
// and is set by the shard that resolved the request. `features` are the
// pinned snapshot's (zero-sized for a request whose tenant never
// resolved).
inline obs::WideEvent BuildWideEvent(const SolveRequest& request,
                                     const SolveResponse& response,
                                     const CostFeatures& features,
                                     double deadline_ms,
                                     double predicted_ms) {
  obs::WideEvent event;
  event.id = request.id;
  event.tenant = response.tenant_id.empty() ? request.tenant_id
                                            : response.tenant_id;
  event.epoch = response.epoch;
  event.solver_req = request.solver;
  event.solver = response.solver;
  // Any negative budget folds to the schema's -1 "rejected as invalid"
  // sentinel so even hostile requests encode to accepted lines.
  event.m = request.m < 0 ? -1 : request.m;
  event.deadline_ms = deadline_ms;
  event.num_queries = features.num_queries;
  event.num_attributes = features.num_attributes;
  event.collapse_ratio = features.collapse_ratio;
  event.queue_ms = response.queue_ms;
  event.solve_ms = response.solve_ms;
  event.total_ms = response.queue_ms + response.solve_ms;
  event.predicted_ms = predicted_ms;
  event.outcome = WideEventOutcome(response.status);
  event.code = StatusCodeToString(response.status.code());
  event.shed_reason = response.shed_reason;
  if (response.degraded && response.stop_reason != StopReason::kNone) {
    event.stop_reason = StopReasonToString(response.stop_reason);
  }
  event.degraded = response.degraded;
  event.fast_path = response.fast_path;
  event.cache_hit = response.cache_hit;
  event.breaker_rerouted = response.breaker_rerouted;
  event.ladder_downgraded = response.ladder_downgraded;
  if (response.status.ok()) {
    event.satisfied = response.solution.satisfied_queries;
  }
  event.retry_after_ms = response.retry_after_ms;
  return event;
}

}  // namespace soc::serve

#endif  // SOC_SERVE_EVENT_BUILDER_H_
