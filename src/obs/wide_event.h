// The wide-event request log: one structured, flat JSON record per
// served request — the "canonical queryable event" of observability v2
// (DESIGN.md §15). Where metrics aggregate and traces narrate, a wide
// event carries *everything known about one request* in one row:
// routing (tenant, shard, epoch), the CostModel instance features the
// admission decision saw, the solver requested vs. the solver that
// actually ran, all three latencies, and every outcome bit (shed /
// degrade / breaker reroute / ladder downgrade / cache hit). The JSONL
// file socvis_serve writes behind --events-out is the training set the
// ROADMAP's adaptive solver portfolio will learn its dispatcher from,
// so the schema is versioned and round-trips bit-exactly.
//
// Schema v1 (field → meaning; optional fields are omitted at their
// default, so encode(parse(line)) == line for every accepted line):
//
//   v               int     required; always 1 (readers reject others)
//   ts_ms           double  steady-clock ms since the EventLog epoch
//   id              string  request id, echoed from the protocol
//   tenant          string  optional; tenant id on the sharded path
//   shard           int     optional (default -1); shard index
//   epoch           int     optional (default 0); snapshot epoch served
//   solver_req      string  solver named by the client
//   solver          string  solver that actually ran (after downgrades)
//   m               int     requested attribute budget (-1: the client
//                           sent a negative budget and was rejected)
//   deadline_ms     double  optional; effective deadline
//   num_queries     int     CostModel feature |Q| (collapsed log size)
//   num_attributes  int     CostModel feature: attribute count
//   collapse_ratio  double  CostModel feature: collapsed/raw |Q|
//   queue_ms        double  submit → worker pickup
//   solve_ms        double  pickup → response
//   total_ms        double  submit → response
//   predicted_ms    double  optional; CostModel solve-time prediction
//   outcome         string  one of kWideEventOutcomes
//   code            string  StatusCodeToString of the response status
//   shed_reason     string  optional; one of kWideEventShedReasons
//   stop_reason     string  optional; degrade reason ("deadline", ...)
//   degraded, fast_path, cache_hit, breaker_rerouted, ladder_downgraded
//                   bool    optional outcome bits (omitted when false)
//   satisfied       int     optional (default -1); objective value
//   retry_after_ms  double  optional; backoff hint on sheds
//
// This header is in the obs layer (below serve), so the shed-reason
// vocabulary is declared here as a canonical table rather than included
// from serve/request.h; soc_lint's event-field-parity rule
// keeps the two lists identical in both directions.

#ifndef SOC_OBS_WIDE_EVENT_H_
#define SOC_OBS_WIDE_EVENT_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace soc::obs {

// Bumped whenever a field changes meaning or type; additions that keep
// old readers correct may reuse the version.
inline constexpr int kWideEventSchemaVersion = 1;

// Canonical outcome classification, exactly one per event.
inline constexpr const char* kWideEventOutcomes[] = {
    "ok",       // Served a solution (possibly degraded / from cache).
    "shed",     // Load-shed with kOverloaded; see shed_reason.
    "invalid",  // Client error: malformed request or unknown name.
    "error",    // Solver / internal fault.
};

// Canonical shed_reason vocabulary. Must match the kShedReason*
// constants in src/serve/request.h (lint rule
// event-field-parity checks both directions).
inline constexpr const char* kWideEventShedReasons[] = {
    "queue_full",
    "predicted_deadline_miss",
    "deadline_expired",
    "shutdown",
};

struct WideEvent {
  double ts_ms = 0;
  std::string id;
  std::string tenant;            // Empty on the single-tenant path.
  int shard = -1;                // -1 = single-tenant.
  std::int64_t epoch = 0;        // 0 = no snapshot epoch.
  std::string solver_req;
  std::string solver;
  int m = 0;
  double deadline_ms = 0;
  // CostModel instance features (serve/cost_model.h CostFeatures).
  int num_queries = 0;
  int num_attributes = 0;
  double collapse_ratio = 0;
  double queue_ms = 0;
  double solve_ms = 0;
  double total_ms = 0;
  double predicted_ms = 0;
  std::string outcome = "ok";
  std::string code = "OK";
  std::string shed_reason;
  std::string stop_reason;       // Empty = not degraded.
  bool degraded = false;
  bool fast_path = false;
  bool cache_hit = false;
  bool breaker_rerouted = false;
  bool ladder_downgraded = false;
  int satisfied = -1;            // -1 = no solution attached.
  double retry_after_ms = 0;
};

bool IsWideEventOutcome(const std::string& outcome);
bool IsWideEventShedReason(const std::string& reason);

// One line of JSONL, no trailing newline. Deterministic: fixed field
// order, optional fields omitted at their defaults.
std::string WideEventToJsonLine(const WideEvent& event);

// Strict inverse: rejects unknown fields, wrong types, non-finite or
// negative latencies, out-of-vocabulary enums and schema versions other
// than kWideEventSchemaVersion. Encoding is a fixed point of
// parse∘encode: for every event e,
// WideEventToJsonLine(*ParseWideEventLine(WideEventToJsonLine(e))) ==
// WideEventToJsonLine(e) (an accepted non-canonical spelling like
// "0.1" may re-encode to its %.17g form, but never drifts further).
StatusOr<WideEvent> ParseWideEventLine(const std::string& line);

}  // namespace soc::obs

#endif  // SOC_OBS_WIDE_EVENT_H_
