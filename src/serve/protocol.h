// The socvis_serve JSONL wire protocol: one flat JSON object per line.
//
// Request line (tuple is a 0/1 bitstring of the log's attribute width):
//   {"id":"r1","tuple":"110101","m":3,"solver":"Fallback","deadline_ms":50}
// `solver` and `deadline_ms` are optional (default Fallback / service
// default); `id` defaults to the 1-based line number if omitted.
//
// Multi-tenant requests add "tenant_id" (non-empty string, at most
// kMaxTenantIdBytes bytes):
//   {"id":"r1","tenant_id":"acme","tuple":"110101","m":3}
// The field is optional on the single-tenant service (ignored there) and
// required by the sharded service, which rejects its absence at
// admission rather than at parse time.
//
// Response line:
//   {"id":"r1","status":"OK","solver":"Fallback","selected":"100100",
//    "satisfied_queries":7,"proved_optimal":true,"degraded":false,
//    "fast_path":false,"queue_ms":0.1,"solve_ms":1.9}
// Rejected requests instead carry "status":"Overloaded"/... plus "error"
// with the message; solution fields are omitted. Degraded responses add
// "stop_reason". Load-shed (kOverloaded) responses additionally carry
// "shed_reason" (one of the kShedReason* constants) and, when the
// service can estimate backlog drain, a "retry_after_ms" hint clients
// use as a backoff floor:
//   {"id":"r2","status":"Overloaded","error":"...","shed_reason":
//    "predicted_deadline_miss","retry_after_ms":12.5}
//
// Multi-tenant responses echo "tenant_id" (when the request carried
// one), add "epoch" (the snapshot epoch the answer was computed
// against, emitted when positive) and, on OK lines answered from the
// result cache, "cache_hit":true:
//   {"id":"r1","tenant_id":"acme","status":"OK","epoch":3,
//    "cache_hit":true,"solver":"ILP","selected":"100100",...}

#ifndef SOC_SERVE_PROTOCOL_H_
#define SOC_SERVE_PROTOCOL_H_

#include <string>

#include "boolean/query_log.h"
#include "common/json_writer.h"
#include "common/status.h"
#include "serve/request.h"

namespace soc::serve {

// Hard cap on the wire length of tenant_id (bytes). Generous for any
// real naming scheme while bounding per-request key/counter memory.
inline constexpr int kMaxTenantIdBytes = 128;

// Decodes one JSONL request line against `log` (for tuple-width checks and
// defaults). `line_number` (1-based) supplies the default id.
StatusOr<SolveRequest> ParseSolveRequestLine(const std::string& line,
                                             const QueryLog& log,
                                             int line_number);

// Width-agnostic variant for the multi-tenant front door, where the
// expected tuple width depends on which tenant the request names and is
// therefore checked at admission. `num_attributes` >= 0 enforces the
// width at parse time; pass -1 to accept any width.
StatusOr<SolveRequest> ParseSolveRequestLine(const std::string& line,
                                             int num_attributes,
                                             int line_number);

// Encodes a response as one JSON object (no trailing newline).
JsonValue ResponseToJson(const SolveResponse& response);

// An admin-path line on the multi-tenant socvis_serve: tenant lifecycle
// commands and observability queries interleaved with solve requests on
// the same stream.
//   {"admin":"create_tenant","tenant_id":"acme","log":"acme.csv"}
//   {"admin":"publish_epoch","tenant_id":"acme","log":"acme_v2.csv"}
//   {"admin":"slo"}                    — SLO report for every tenant
//   {"admin":"slo","tenant_id":"acme"} — one tenant's SLO state
// `log` names a query-log CSV the server loads; the response line echoes
// the action plus the resulting epoch. `slo` takes no log and replies
// with the burn-rate report (obs/slo.h) as one JSON line.
struct AdminRequest {
  std::string action;     // "create_tenant", "publish_epoch" or "slo".
  std::string tenant_id;  // <= kMaxTenantIdBytes; optional for "slo".
  std::string log_path;   // Non-empty except for "slo" (must be absent).
};

// Cheap routing test: true iff the line carries an "admin" key. Callers
// dispatch admin lines to ParseAdminRequestLine and everything else to
// ParseSolveRequestLine (which treats "admin" as an unknown field).
bool LooksLikeAdminLine(const std::string& line);

// Decodes and validates one admin line (unknown fields are errors, same
// strictness as the solve-request parser).
StatusOr<AdminRequest> ParseAdminRequestLine(const std::string& line);

// Decodes one JSONL response line — the inverse of ResponseToJson, used
// by retrying clients and the round-trip fuzzers. The returned response
// reconstructs everything the wire carries: status (with the "error"
// message), solution fields on OK lines, stop_reason on degraded lines,
// shed_reason / retry_after_ms on overloaded lines. Unknown fields are
// an error, mirroring ParseSolveRequestLine.
StatusOr<SolveResponse> ParseSolveResponseLine(const std::string& line);

}  // namespace soc::serve

#endif  // SOC_SERVE_PROTOCOL_H_
