// Correctness checks on every response the benchmark saw, made after the
// timed phases on the answers as read back from their wire lines:
//
//  * an OK selection is a subset of the request's tuple, of the tuple's
//    width, with at most m attributes;
//  * satisfied_queries equals a CountSatisfiedQueries recount against the
//    log of the response's epoch;
//  * an answer that claims to be optimal — proved_optimal, or any answer
//    not marked degraded to a request for an exact solver (BranchAndBound,
//    ILP, BruteForce, MaxFreqItemSets, MaxFreqItemSets-dfs, Fallback),
//    cache hit or not —
//    equals a direct BranchAndBound solve of the same (log, tuple, m), on
//    every workload whose logs are small enough for that solve (all but
//    greedy_biglog);
//  * multi-tenant: the epoch is one that was published, and not older
//    than the tenant's latest epoch when the request was submitted; a
//    cache-hit answer is one the program gave, uncached, to a request for
//    the same solver on the same key (tenant, tuple, m, epoch), or its
//    zero-visibility fast-path answer there (which does not depend on the
//    solver) — that is, an answer this request could have got uncached;
//  * the ledger balances: sent = OK + shed + errors.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "loadgen.h"
#include "workloads.h"

namespace perfbench {

struct CheckReport {
  std::int64_t sent = 0;
  std::int64_t ok = 0;
  std::int64_t shed = 0;
  std::int64_t errors = 0;
  std::int64_t checked = 0;       // OK answers verified.
  std::int64_t optimum_checked = 0;  // Of those, proved answers re-solved.
  std::int64_t hits_checked = 0;  // Cache hits matched to a miss.
  // Cache hits answered by another solver than the one requested.
  std::int64_t cross_solver_hits = 0;
  std::int64_t check_failures = 0;
  // Measured (not warmup) requests that failed at least one check.
  std::int64_t failed_measured = 0;
  std::vector<std::string> failures;  // First few messages.
};

// Checks every outcome in `outcomes` (the whole run, warmup included:
// cache hits may replay answers first computed there). `publisher` is
// null on single-tenant workloads.
CheckReport CheckOutcomes(const Workload& workload,
                          const OutcomeStore& outcomes,
                          const Publisher* publisher);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
