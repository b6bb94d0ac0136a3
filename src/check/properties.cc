#include "check/properties.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "boolean/evaluator.h"
#include "boolean/log_stats.h"
#include "boolean/schema.h"
#include "common/solve_context.h"
#include "common/timer.h"
#include "core/solver_registry.h"
#include "kernels/kernels.h"

namespace soc::check {

namespace {

// Lint parity (property-parity rule): every solver in kRegistry must be
// listed here, and the nightly/property drivers run the catalog against
// each. Adding a solver to the registry without adding it here fails
// soc_lint.
constexpr const char* kPropertyCheckedSolvers[] = {
    "BruteForce",
    "BranchAndBound",
    "ILP",
    "MaxFreqItemSets",
    "MaxFreqItemSets-dfs",
    "ConsumeAttr",
    "ConsumeAttrCumul",
    "ConsumeQueries",
    "Fallback",
};

int EffectiveBudget(const Instance& instance) {
  return std::min(instance.m, static_cast<int>(instance.tuple.Count()));
}

Status Violation(const std::string& message, const Instance& instance) {
  return FailedPreconditionError(message + " [" + InstanceSummary(instance) +
                                 "]");
}

// The solution invariants every solver guarantees, clean or degraded
// (mirrors ExpectValidSolution in tests/robustness_test.cc).
Status ValidateSolution(const Instance& instance, const SocSolution& solution,
                        const std::string& label) {
  const int m_eff = EffectiveBudget(instance);
  if (solution.selected.size() !=
      static_cast<std::size_t>(instance.log.num_attributes())) {
    return Violation(label + ": selection width " +
                         std::to_string(solution.selected.size()) +
                         " != attribute count",
                     instance);
  }
  if (!solution.selected.IsSubsetOf(instance.tuple)) {
    return Violation(label + ": selection is not a subset of the tuple",
                     instance);
  }
  if (static_cast<int>(solution.selected.Count()) != m_eff) {
    return Violation(label + ": selection has " +
                         std::to_string(solution.selected.Count()) +
                         " attributes, want m_eff=" + std::to_string(m_eff),
                     instance);
  }
  const int recount = CountSatisfiedQueries(instance.log, solution.selected);
  if (solution.satisfied_queries != recount) {
    return Violation(label + ": reported objective " +
                         std::to_string(solution.satisfied_queries) +
                         " != reference recount " + std::to_string(recount),
                     instance);
  }
  if (IsDegraded(solution)) {
    if (solution.proved_optimal) {
      return Violation(label + ": degraded solution claims proved_optimal",
                       instance);
    }
    if (SolutionStopReason(solution) == StopReason::kNone) {
      return Violation(label + ": degraded solution has stop reason kNone",
                       instance);
    }
  } else if (SolutionStopReason(solution) != StopReason::kNone) {
    return Violation(label + ": undegraded solution carries a stop reason",
                     instance);
  }
  return Status::OK();
}

StatusOr<SocSolution> SolveOrExplain(const SocSolver& solver,
                                     const QueryLog& log,
                                     const DynamicBitset& tuple, int m) {
  auto result = solver.Solve(log, tuple, m);
  if (!result.ok()) {
    return InternalError("solver " + solver.name() +
                         " errored on a clean solve: " +
                         result.status().ToString());
  }
  return *std::move(result);
}

// Brute-force optimum; errors if brute force cannot certify (never happens
// on generator-sized instances).
StatusOr<int> BruteOptimum(const Instance& instance) {
  SOC_ASSIGN_OR_RETURN(const std::unique_ptr<SocSolver> brute,
                       CreateSolverByName("BruteForce"));
  SOC_ASSIGN_OR_RETURN(
      const SocSolution solution,
      SolveOrExplain(*brute, instance.log, instance.tuple, instance.m));
  if (!solution.proved_optimal) {
    return InternalError("brute force failed to certify optimality on " +
                         InstanceSummary(instance));
  }
  return solution.satisfied_queries;
}

Status CheckValidSolution(const Instance& instance, const SocSolver& solver) {
  SOC_ASSIGN_OR_RETURN(
      const SocSolution solution,
      SolveOrExplain(solver, instance.log, instance.tuple, instance.m));
  return ValidateSolution(instance, solution, solver.name());
}

Status CheckBounds(const Instance& instance, const SocSolver& solver) {
  SOC_ASSIGN_OR_RETURN(
      const SocSolution solution,
      SolveOrExplain(solver, instance.log, instance.tuple, instance.m));
  SOC_ASSIGN_OR_RETURN(const int optimum, BruteOptimum(instance));
  const int m_eff = EffectiveBudget(instance);
  int upper = 0;  // #{q : q ⊆ t, |q| <= m_eff}: no selection can beat it.
  for (const DynamicBitset& q : instance.log.queries()) {
    if (static_cast<int>(q.Count()) <= m_eff && q.IsSubsetOf(instance.tuple)) {
      ++upper;
    }
  }
  if (solution.satisfied_queries > optimum) {
    return Violation(solver.name() + " reports " +
                         std::to_string(solution.satisfied_queries) +
                         " satisfied queries, above the optimum " +
                         std::to_string(optimum),
                     instance);
  }
  if (optimum > upper) {
    return Violation("brute-force optimum " + std::to_string(optimum) +
                         " exceeds the satisfiable-size upper bound " +
                         std::to_string(upper),
                     instance);
  }
  if (solution.proved_optimal && solution.satisfied_queries != optimum) {
    return Violation(solver.name() + " claims optimality at " +
                         std::to_string(solution.satisfied_queries) +
                         " but the optimum is " + std::to_string(optimum),
                     instance);
  }
  return Status::OK();
}

Status CheckMonotoneInM(const Instance& instance, const SocSolver& solver) {
  SOC_ASSIGN_OR_RETURN(
      const SocSolution at_m,
      SolveOrExplain(solver, instance.log, instance.tuple, instance.m));
  SOC_ASSIGN_OR_RETURN(
      const SocSolution at_m1,
      SolveOrExplain(solver, instance.log, instance.tuple, instance.m + 1));
  // Sound for certified optima always; for the prefix-greedy heuristics
  // (their pick sequence does not depend on the budget, so the m-selection
  // is a prefix of the (m+1)-selection) unconditionally. ConsumeQueries is
  // deliberately absent: its choices depend on the remaining slack.
  const std::string name = solver.name();
  const bool prefix_greedy =
      name == "ConsumeAttr" || name == "ConsumeAttrCumul";
  if ((at_m.proved_optimal && at_m1.proved_optimal) || prefix_greedy) {
    if (at_m.satisfied_queries > at_m1.satisfied_queries) {
      return Violation(name + ": raising m from " +
                           std::to_string(instance.m) + " to " +
                           std::to_string(instance.m + 1) +
                           " dropped visibility " +
                           std::to_string(at_m.satisfied_queries) + " -> " +
                           std::to_string(at_m1.satisfied_queries),
                       instance);
    }
  }
  return Status::OK();
}

Status CheckAddedQuery(const Instance& instance, const SocSolver& solver) {
  SOC_ASSIGN_OR_RETURN(
      const SocSolution before,
      SolveOrExplain(solver, instance.log, instance.tuple, instance.m));
  if (!before.proved_optimal) return Status::OK();
  // Append a query equal to the optimal selection: it is satisfied by that
  // same selection, so the new optimum must gain at least one.
  Instance extended;
  extended.tuple = instance.tuple;
  extended.m = instance.m;
  extended.log = instance.log;
  extended.log.AddQuery(before.selected);
  SOC_ASSIGN_OR_RETURN(
      const SocSolution after,
      SolveOrExplain(solver, extended.log, extended.tuple, extended.m));
  if (!after.proved_optimal) return Status::OK();
  if (after.satisfied_queries < before.satisfied_queries + 1) {
    return Violation(solver.name() +
                         ": adding a query satisfied by the optimum moved "
                         "visibility " +
                         std::to_string(before.satisfied_queries) + " -> " +
                         std::to_string(after.satisfied_queries),
                     instance);
  }
  return Status::OK();
}

Status CheckPermutationInvariance(const Instance& instance,
                                  const SocSolver& solver) {
  const int n = instance.log.num_attributes();
  Instance reversed;
  reversed.m = instance.m;
  reversed.tuple = DynamicBitset(static_cast<std::size_t>(n));
  for (int a = 0; a < n; ++a) {
    if (instance.tuple.Test(static_cast<std::size_t>(a))) {
      reversed.tuple.Set(static_cast<std::size_t>(n - 1 - a));
    }
  }
  reversed.log = QueryLog(AttributeSchema::Anonymous(n));
  for (const DynamicBitset& q : instance.log.queries()) {
    DynamicBitset rq(static_cast<std::size_t>(n));
    q.ForEachSetBit([&rq, n](int a) {
      rq.Set(static_cast<std::size_t>(n - 1 - a));
    });
    reversed.log.AddQuery(std::move(rq));
  }
  SOC_ASSIGN_OR_RETURN(
      const SocSolution original,
      SolveOrExplain(solver, instance.log, instance.tuple, instance.m));
  SOC_ASSIGN_OR_RETURN(
      const SocSolution permuted,
      SolveOrExplain(solver, reversed.log, reversed.tuple, reversed.m));
  // The objective is permutation-invariant; heuristic tie-breaking is by
  // attribute index, so only certified optima are comparable.
  if (original.proved_optimal && permuted.proved_optimal &&
      original.satisfied_queries != permuted.satisfied_queries) {
    return Violation(solver.name() + ": optimum changed under attribute "
                         "permutation, " +
                         std::to_string(original.satisfied_queries) + " vs " +
                         std::to_string(permuted.satisfied_queries),
                     instance);
  }
  return Status::OK();
}

Status CheckCollapsedLog(const Instance& instance, const SocSolver& solver) {
  // ILP, the MFI pair and Fallback have no collapsed-log entry.
  const auto* collapsible = dynamic_cast<const CollapsibleSolver*>(&solver);
  if (collapsible == nullptr) return Status::OK();
  auto folded = collapsible->SolveCollapsed(
      CollapseDuplicateQueries(instance.log), instance.tuple, instance.m);
  if (!folded.ok()) {
    return InternalError("solver " + solver.name() +
                         " errored on a collapsed solve: " +
                         folded.status().ToString());
  }
  SOC_ASSIGN_OR_RETURN(
      const SocSolution raw,
      SolveOrExplain(solver, instance.log, instance.tuple, instance.m));
  const SocSolution& solution = *folded;
  if (solution.selected != raw.selected ||
      solution.satisfied_queries != raw.satisfied_queries ||
      solution.proved_optimal != raw.proved_optimal) {
    return Violation(solver.name() + ": collapsed solve selected " +
                         solution.selected.ToString() + " (" +
                         std::to_string(solution.satisfied_queries) +
                         "), raw solve " + raw.selected.ToString() + " (" +
                         std::to_string(raw.satisfied_queries) + ")",
                     instance);
  }
  return Status::OK();
}

Status CheckDegradeContract(const Instance& instance, const SocSolver& solver) {
  const StopReason reasons[] = {StopReason::kDeadline, StopReason::kCancelled,
                                StopReason::kTickBudget};
  for (const StopReason reason : reasons) {
    for (const std::int64_t at_tick : {std::int64_t{1}, std::int64_t{5}}) {
      SolveContext context;
      context.InjectFault(reason, at_tick);
      auto result = solver.SolveWithContext(instance.log, instance.tuple,
                                            instance.m, &context);
      const std::string label = solver.name() + " fault=" +
                                StopReasonToString(reason) + "@" +
                                std::to_string(at_tick);
      if (!result.ok()) {
        return Violation(label + ": solver must degrade, not error: " +
                             result.status().ToString(),
                         instance);
      }
      SOC_RETURN_IF_ERROR(ValidateSolution(instance, *result, label));
      if (IsDegraded(*result) && SolutionStopReason(*result) != reason) {
        return Violation(label + ": degraded with reason " +
                             StopReasonToString(SolutionStopReason(*result)),
                         instance);
      }
    }
  }

  SolveContext expired;
  expired.set_deadline(Deadline::AfterSeconds(0.0));
  auto result = solver.SolveWithContext(instance.log, instance.tuple,
                                        instance.m, &expired);
  const std::string label = solver.name() + " pre-expired deadline";
  if (!result.ok()) {
    return Violation(label + ": solver must degrade, not error: " +
                         result.status().ToString(),
                     instance);
  }
  SOC_RETURN_IF_ERROR(ValidateSolution(instance, *result, label));
  if (IsDegraded(*result) &&
      SolutionStopReason(*result) != StopReason::kDeadline) {
    return Violation(label + ": degraded with reason " +
                         StopReasonToString(SolutionStopReason(*result)),
                     instance);
  }
  // When there is real work to stop (some nonempty query is satisfiable
  // within the budget), every registry solver must notice the expired
  // deadline; silently completing "optimal" would break the serving
  // layer's latency contract.
  const int m_eff = EffectiveBudget(instance);
  bool has_work = false;
  for (const DynamicBitset& q : instance.log.queries()) {
    if (q.Any() && static_cast<int>(q.Count()) <= m_eff &&
        q.IsSubsetOf(instance.tuple)) {
      has_work = true;
      break;
    }
  }
  if (has_work && !IsDegraded(*result)) {
    return Violation(label + ": solver ignored the expired deadline",
                     instance);
  }
  return Status::OK();
}

Status CheckConsumeAttrSpec(const Instance& instance, const SocSolver& solver) {
  if (solver.name() != "ConsumeAttr") return Status::OK();
  SOC_ASSIGN_OR_RETURN(
      const SocSolution solution,
      SolveOrExplain(solver, instance.log, instance.tuple, instance.m));
  // The documented spec, recomputed independently: the top-m_eff tuple
  // attributes by (query-log frequency desc, index asc). Any off-by-one in
  // the solver's ranking or cutoff shows up as a selection mismatch.
  const std::vector<int> freq = instance.log.AttributeFrequencies();
  std::vector<int> attrs = instance.tuple.SetBits();
  std::sort(attrs.begin(), attrs.end(), [&freq](int a, int b) {
    if (freq[a] != freq[b]) return freq[a] > freq[b];
    return a < b;
  });
  const int m_eff = EffectiveBudget(instance);
  DynamicBitset expected(
      static_cast<std::size_t>(instance.log.num_attributes()));
  for (int i = 0; i < m_eff; ++i) {
    expected.Set(static_cast<std::size_t>(attrs[i]));
  }
  if (solution.selected != expected) {
    return Violation("ConsumeAttr selected {" +
                         solution.selected.ToString() + "}, spec says {" +
                         expected.ToString() + "}",
                     instance);
  }
  return Status::OK();
}

Status CheckKernelDiff(const Instance& instance, const SocSolver& solver) {
  // One kernel check per instance is enough; anchor it to ConsumeAttrCumul
  // (its solve exercises the superset/gain direction end to end).
  if (solver.name() != "ConsumeAttrCumul") return Status::OK();
  const int num_attrs = instance.log.num_attributes();
  const std::size_t width = static_cast<std::size_t>(num_attrs);
  const kernels::CoverageBlockSet blocks(instance.log.queries(), width);

  // Probe selections: empty, the tuple, and the solver's own pick.
  std::vector<DynamicBitset> probes;
  probes.emplace_back(width);
  probes.push_back(instance.tuple);
  SOC_ASSIGN_OR_RETURN(
      const SocSolution solution,
      SolveOrExplain(solver, instance.log, instance.tuple, instance.m));
  probes.push_back(solution.selected);

  std::vector<long long> gains(width, 0);
  for (const kernels::Tier tier : kernels::AvailableTiers()) {
    const kernels::KernelOps* ops = kernels::GetOps(tier);
    const std::string label =
        std::string("kernel tier ") + kernels::TierName(tier);
    for (const DynamicBitset& sel : probes) {
      // Subset (coverage) direction vs. a per-query recount.
      long long covered_ref = 0;
      for (const DynamicBitset& q : instance.log.queries()) {
        if (q.IsSubsetOf(sel)) ++covered_ref;
      }
      const long long covered = kernels::CountCoveredWith(*ops, blocks, sel);
      if (covered != covered_ref) {
        return Violation(label + ": CountCovered " + std::to_string(covered) +
                             " != reference " + std::to_string(covered_ref),
                         instance);
      }
      // Superset (gain) direction vs. the query log's own joint counter.
      const kernels::GainScan scan = kernels::CoverageGainWith(
          *ops, blocks, sel, gains.data(), /*context=*/nullptr);
      if (!scan.completed) {
        return Violation(label + ": context-free gain scan did not complete",
                         instance);
      }
      for (int attr = 0; attr < num_attrs; ++attr) {
        if (sel.Test(attr)) continue;
        DynamicBitset with_attr = sel;
        with_attr.Set(attr);
        const long long joint =
            instance.log.CountQueriesContainingAll(with_attr);
        if (gains[attr] != joint) {
          return Violation(label + ": gain[" + std::to_string(attr) + "] = " +
                               std::to_string(gains[attr]) +
                               " != joint count " + std::to_string(joint),
                           instance);
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace

const std::vector<PropertyCheck>& PropertyCatalog() {
  static const std::vector<PropertyCheck>* const kCatalog =
      new std::vector<PropertyCheck>{
          {"valid-solution",
           "selection subset/size/objective invariants, degraded-marker "
           "consistency",
           &CheckValidSolution},
          {"bounds",
           "solver <= brute-force optimum <= satisfiable-size upper bound; "
           "certified solves hit the optimum",
           &CheckBounds},
          {"monotone-in-m",
           "visibility never drops when the budget grows (certified solves "
           "and prefix-greedy heuristics)",
           &CheckMonotoneInM},
          {"added-query",
           "appending a query satisfied by the optimum raises the optimum",
           &CheckAddedQuery},
          {"permutation",
           "the optimum is invariant under attribute reordering",
           &CheckPermutationInvariance},
          {"collapsed-log",
           "solving the duplicate-collapsed log returns the raw solve's "
           "selection and objective (BruteForce, BranchAndBound, greedies)",
           &CheckCollapsedLog},
          {"degrade-contract",
           "injected faults and pre-expired deadlines yield valid partial "
           "solutions with matching stop reasons",
           &CheckDegradeContract},
          {"consume-attr-spec",
           "ConsumeAttr's selection equals the independently recomputed "
           "frequency ranking",
           &CheckConsumeAttrSpec},
          {"kernel-diff",
           "every available kernel tier matches per-query recounts for "
           "coverage and marginal gains (runs on ConsumeAttrCumul only)",
           &CheckKernelDiff},
      };
  return *kCatalog;
}

Status CheckAllProperties(const Instance& instance, const SocSolver& solver) {
  for (const PropertyCheck& property : PropertyCatalog()) {
    Status status = property.check(instance, solver);
    if (!status.ok()) {
      return Status(status.code(), std::string(property.name) + ": " +
                                       status.message());
    }
  }
  return Status::OK();
}

std::vector<std::string> PropertyCheckedSolvers() {
  return std::vector<std::string>(std::begin(kPropertyCheckedSolvers),
                                  std::end(kPropertyCheckedSolvers));
}

}  // namespace soc::check
