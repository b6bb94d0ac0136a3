// The request/response types of the serving pipeline, shared by every
// layer that speaks it: the TenantShard pipeline (tenant/shard.h), its
// single-tenant facade VisibilityService (serve/visibility_service.h),
// the sharded front door, the JSONL wire protocol (serve/protocol.h) and
// the wide-event builder (serve/event_builder.h).

#ifndef SOC_SERVE_REQUEST_H_
#define SOC_SERVE_REQUEST_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "common/bitset.h"
#include "common/solve_context.h"
#include "common/status.h"
#include "core/solver.h"
#include "obs/wide_event.h"

namespace soc::serve {

struct SolveRequest {
  std::string id;          // Echoed back; free-form.
  DynamicBitset tuple;     // Width must equal the log's attribute count.
  int m = 0;
  std::string solver = "Fallback";  // A RegisteredSolverNames() entry.
  double deadline_ms = 0;  // Per-request budget from Submit; 0 = default.
  // Multi-tenant routing (tenant/sharded_service.h). Empty on the
  // single-tenant VisibilityService path, where it is ignored; the
  // sharded service requires it. Non-empty, <= 128 bytes (protocol.cc
  // enforces both on the wire).
  std::string tenant_id;
};

// The shed_reason values carried on kOverloaded responses: the entries
// of the wide-event schema's vocabulary, so every shed encodes.
inline constexpr const char* kShedReasonQueueFull =
    obs::kWideEventShedReasons[0];
inline constexpr const char* kShedReasonPredicted =
    obs::kWideEventShedReasons[1];
inline constexpr const char* kShedReasonExpired =
    obs::kWideEventShedReasons[2];
inline constexpr const char* kShedReasonShutdown =
    obs::kWideEventShedReasons[3];

// How the pipeline resolved one request, decided once, where the
// decision is made. Every counter, latency sample, SLO outcome, trace
// instant and wide event of the request is derived from it
// (TenantShard::RecordOutcome). Ordered: Submit-time dispositions first.
enum class Disposition {
  kInvalid,          // Malformed request: tenant, width, m, deadline, solver.
  kUnknownTenant,    // Non-empty tenant id that resolved to no snapshot.
  kQueueFull,        // Shed at Submit: max_queue requests already queued.
  kPredictedShed,    // Shed at Submit: the deadline is predicted to miss.
  kShutdown,         // Refused: the pool shut down under the Submit.
  kExpiredRejected,  // Expired at pickup under reject_expired.
  kCacheHit,         // Answered from the result cache.
  kFastPath,         // Provably zero-visible: answered without a solver.
  kSolved,           // A solver ran (see SolveResponse::route).
};

// True for the dispositions decided after a worker picked the request up.
constexpr bool PickedUp(Disposition disposition) {
  return disposition >= Disposition::kExpiredRejected;
}

// The shed_reason a disposition carries on its kOverloaded response;
// nullptr for dispositions that are not sheds.
constexpr const char* ShedReason(Disposition disposition) {
  switch (disposition) {
    case Disposition::kQueueFull:
      return kShedReasonQueueFull;
    case Disposition::kPredictedShed:
      return kShedReasonPredicted;
    case Disposition::kShutdown:
      return kShedReasonShutdown;
    case Disposition::kExpiredRejected:
      return kShedReasonExpired;
    default:
      return nullptr;
  }
}

// Why a solved request ran the solver it ran.
enum class Route {
  kAsRequested,
  kLateFallback,  // Expired at pickup: degraded through Fallback.
  kLadder,        // The degradation ladder lowered its exact tier.
  kBreaker,       // Its tier's breaker was open: rerouted to Fallback.
};

struct SolveResponse {
  std::string id;
  std::string solver;      // Solver that actually ran (may be downgraded).
  Status status;           // OK, or kOverloaded / kInvalidArgument / ...
  SocSolution solution;    // Meaningful iff status.ok().
  bool degraded = false;
  StopReason stop_reason = StopReason::kNone;
  bool fast_path = false;  // Answered from the bitmap index, no solver.
  double queue_ms = 0;     // Submit → worker pickup.
  double solve_ms = 0;     // Worker pickup → response.
  // kOverloaded guidance: when to retry (0 = no hint) and why the
  // request was shed (one of the kShedReason* constants; empty
  // otherwise).
  double retry_after_ms = 0;
  std::string shed_reason;
  // Multi-tenant serving metadata. tenant_id echoes the request's;
  // epoch is the snapshot epoch the answer was computed against (> 0
  // only on the sharded path); cache_hit marks answers replayed from
  // the ResultCache without running a solver.
  std::string tenant_id;
  std::int64_t epoch = 0;
  bool cache_hit = false;
  // Observability only (wide-event log; never on the wire protocol): why
  // `solver` ran, when a solver ran.
  Route route = Route::kAsRequested;
};

// Chaos/test injection point, invoked on the worker thread after the
// late/fast-path tiers and solver selection (ladder + breaker reroutes
// applied), immediately before the solver runs. A non-OK return is
// treated as a fault of the *effective* solver — it feeds the breaker
// and the solver.<name>.errors counters exactly like a real solve error.
// The hook may also stall (slow-worker injection) or call
// context->InjectFault; it must be thread-safe.
struct WorkerHookContext {
  const SolveRequest& request;
  const std::string& solver;  // Effective solver about to run.
  SolveContext* context;
  // The watchdog's cancel flag for this solve; nullptr when unmonitored.
  const std::atomic<bool>* watchdog_flag;
};
using WorkerHook = std::function<Status(const WorkerHookContext&)>;

}  // namespace soc::serve

#endif  // SOC_SERVE_REQUEST_H_
