// The metamorphic property catalog run against every registry solver.
//
// Each property is a self-contained check on one (instance, solver) pair
// returning OK when it holds (or does not apply — e.g. equalities that are
// only sound for solves with proved_optimal) and an error Status with a
// human-readable violation message otherwise. The catalog:
//
//   valid-solution    selection ⊆ t, |selection| = min(m,|t|), objective
//                     matches the reference evaluator, degraded marker
//                     consistent with proved_optimal
//   bounds            solver ≤ brute-force optimum ≤ the satisfiable-size
//                     upper bound #{q ⊆ t : |q| ≤ m_eff}; equality with
//                     the optimum whenever the solver proves optimality
//   monotone-in-m     visibility never drops when the budget grows; always
//                     checked for the prefix-greedy ConsumeAttr /
//                     ConsumeAttrCumul, and for proved-optimal solves
//   added-query       appending a query satisfied by the current optimum
//                     raises the optimum by at least one
//   permutation       reversing the attribute order leaves the optimum
//                     unchanged (proved-optimal solves only; heuristics
//                     may legally tie-break differently)
//   collapsed-log     solving the duplicate-collapsed log (each query with
//                     its multiplicity) returns exactly the raw solve's
//                     selection, objective and optimality flag (runs on
//                     the CollapsibleSolvers: BruteForce, BranchAndBound
//                     and the three greedies)
//   degrade-contract  injected faults and a pre-expired deadline yield a
//                     valid partial solution with the degraded marker and
//                     matching stop reason; a pre-expired deadline must
//                     degrade (never silently complete as optimal)
//   consume-attr-spec ConsumeAttr's selection equals the independently
//                     recomputed top-m_eff attributes of t by (query-log
//                     frequency desc, index asc) — the documented spec
//   kernel-diff       every kernel dispatch tier available on this host
//                     (scalar, AVX2, AVX-512) reproduces per-query
//                     recounts of coverage and marginal gains on the
//                     instance's log (runs on ConsumeAttrCumul only)
//
// kPropertyCheckedSolvers lists the registry solvers the suite exercises;
// soc_lint's property-parity rule keeps it in sync with kRegistry.

#ifndef SOC_CHECK_PROPERTIES_H_
#define SOC_CHECK_PROPERTIES_H_

#include <string>
#include <vector>

#include "check/instance.h"
#include "common/status.h"
#include "core/solver.h"

namespace soc::check {

struct PropertyCheck {
  const char* name;
  const char* description;
  Status (*check)(const Instance& instance, const SocSolver& solver);
};

// All properties, in documentation order.
const std::vector<PropertyCheck>& PropertyCatalog();

// Runs every catalog property; returns the first violation (its message is
// prefixed with the property name) or OK.
Status CheckAllProperties(const Instance& instance, const SocSolver& solver);

// Registry solvers covered by the property suite (lint-enforced parity
// with kRegistry in core/solver_registry.cc).
std::vector<std::string> PropertyCheckedSolvers();

}  // namespace soc::check

#endif  // SOC_CHECK_PROPERTIES_H_
