// The SOC-CB-QL problem interface (Sec II.A):
//
//   Given a query log Q (conjunctive Boolean retrieval), a new tuple t and
//   a budget m, compute t' ⊆ t with |t'| = m maximizing the number of
//   queries q ∈ Q with q ⊆ t'.
//
// All solvers implement SocSolver. Exact solvers: BruteForceSolver
// (Sec IV.A), IlpSocSolver (Sec IV.B), MfiSocSolver (Sec IV.C). Heuristics:
// GreedySolver (Sec IV.D).
//
// Conventions shared by every solver:
//  * The effective budget is m_eff = min(m, |t|): a tuple with |t| set
//    attributes cannot retain more than |t|.
//  * Returned selections have exactly m_eff attributes; when fewer useful
//    attributes exist the selection is padded (deterministically, by
//    descending query-log frequency then index) with other attributes of t,
//    which never changes the objective.
//  * `satisfied_queries` is always recomputed with the reference evaluator,
//    so a buggy solver cannot over-report itself.
//  * Anytime behavior: every solver accepts an optional SolveContext
//    (wall-clock deadline, cooperative cancellation, deterministic tick
//    budget — common/solve_context.h). When the context stops the solve,
//    the solver returns a *partial* SocSolution carrying its best incumbent
//    with proved_optimal == false and a "degraded" marker in `metrics`
//    (see IsDegraded / SolutionStopReason) instead of an error Status.
//    Solver-local structural guards (max_combinations, node caps) degrade
//    the same way with StopReason::kResourceLimit.
//  * BruteForceSolver, BnbSocSolver and GreedySolver also solve a
//    duplicate-collapsed log through the same engine (CollapsibleSolver).

#ifndef SOC_CORE_SOLVER_H_
#define SOC_CORE_SOLVER_H_

#include <string>
#include <utility>
#include <vector>

#include "boolean/evaluator.h"
#include "boolean/log_stats.h"
#include "boolean/query_log.h"
#include "common/bitset.h"
#include "common/solve_context.h"
#include "common/status.h"
#include "kernels/coverage.h"

namespace soc {

struct SocSolution {
  DynamicBitset selected;      // t': exactly min(m, |t|) attributes, ⊆ t.
  int satisfied_queries = 0;   // Number of log queries with q ⊆ t'.
  bool proved_optimal = false;  // True iff the solver certifies optimality.
  // Solver-specific counters (nodes, walks, thresholds, ...) for benches.
  std::vector<std::pair<std::string, double>> metrics;
};

// True iff `solution` carries the degradation marker stamped by
// internal::MarkDegraded (i.e. the solver stopped early and surrendered a
// partial incumbent).
bool IsDegraded(const SocSolution& solution);

// The StopReason recorded in a degraded solution's metrics, or kNone for
// clean solutions.
StopReason SolutionStopReason(const SocSolution& solution);

class SocSolver {
 public:
  virtual ~SocSolver() = default;

  // Solves SOC-CB-QL for (log, t, m). `t` must have the log's width and
  // m must be >= 0. `context` is optional and non-owning (it must outlive
  // the call); nullptr solves without deadline, cancellation or budget.
  virtual StatusOr<SocSolution> SolveWithContext(
      const QueryLog& log, const DynamicBitset& tuple, int m,
      SolveContext* context) const = 0;

  // Convenience: solve with an unlimited context.
  StatusOr<SocSolution> Solve(const QueryLog& log, const DynamicBitset& tuple,
                              int m) const {
    return SolveWithContext(log, tuple, m, /*context=*/nullptr);
  }

  // Solver name as used in the paper's figures (e.g. "ILP",
  // "MaxFreqItemSets", "ConsumeAttr").
  virtual std::string name() const = 0;
};

// A solver whose engine reads the log only through query counts, so it
// also solves a duplicate-collapsed log (CollapsedLog) with each query
// counted by its multiplicity: the selection, objective and counters
// equal those of solving the raw log.
class CollapsibleSolver : public SocSolver {
 public:
  StatusOr<SocSolution> SolveWithContext(
      const QueryLog& log, const DynamicBitset& tuple, int m,
      SolveContext* context) const override {
    return Run(log, /*weights=*/nullptr, tuple, m, context);
  }

  // Same options and SolveContext contract as SolveWithContext.
  StatusOr<SocSolution> SolveCollapsed(const CollapsedLog& log,
                                       const DynamicBitset& tuple, int m,
                                       SolveContext* context = nullptr) const {
    return Run(log.queries, &log.weights, tuple, m, context);
  }

 protected:
  // The engine: query i of `log` counts (*weights)[i] times, or once when
  // `weights` is nullptr.
  virtual StatusOr<SocSolution> Run(const QueryLog& log,
                                    const std::vector<int>* weights,
                                    const DynamicBitset& tuple, int m,
                                    SolveContext* context) const = 0;
};

namespace internal {

// min(m, |t|); checks argument sanity.
int EffectiveBudget(const QueryLog& log, const DynamicBitset& tuple, int m);

// Per-attribute query-log frequency: query i counts `(*weights)[i]`
// times, or once when `weights` is nullptr (log.AttributeFrequencies()).
std::vector<int> AttributeFrequencies(const QueryLog& log,
                                      const std::vector<int>* weights);

// Pads `selected` (⊆ tuple) up to `target_size` attributes with further
// attributes of `tuple`, chosen by descending `freq` (per-attribute
// query-log frequency) then ascending index. Callers guarantee
// target_size <= |tuple|.
void PadSelection(const std::vector<int>& freq, const DynamicBitset& tuple,
                  int target_size, DynamicBitset* selected);

// The same padding, computing the frequencies of `log` (with `weights`,
// as in AttributeFrequencies) only when there is something to pad.
void PadSelection(const QueryLog& log, const DynamicBitset& tuple,
                  int target_size, DynamicBitset* selected,
                  const std::vector<int>* weights = nullptr);

// Builds a SocSolution from a selection: recomputes the objective with the
// reference evaluator (Σ multiplicity when `weights` is given) and
// attaches the optimality flag.
SocSolution FinishSolution(const QueryLog& log, DynamicBitset selected,
                           bool proved_optimal,
                           const std::vector<int>* weights = nullptr);

// The queries of `log` that a compression of `tuple` to at most `budget`
// attributes can satisfy (q ⊆ tuple, |q| <= budget), with their
// multiplicities (empty when the log has unit weights).
struct SatisfiableQueries {
  SatisfiableQueries(const QueryLog& log,
                     const std::vector<int>* multiplicities,
                     const DynamicBitset& tuple, int budget);

  // The blocked kernel layout of `queries`, storage from `arena`.
  kernels::CoverageBlockSet Blocks(kernels::Arena* arena) const;

  std::vector<DynamicBitset> queries;
  std::vector<long long> weights;
  DynamicBitset attributes;  // Union of `queries` (⊆ tuple).
};

// Stamps the partial-result contract onto `solution`: clears
// proved_optimal and appends ("degraded", 1.0) and ("stop_reason",
// static_cast<double>(reason)) to its metrics. `reason` must not be kNone.
void MarkDegraded(StopReason reason, SocSolution* solution);

// Checkpoint helper for the nullable context convention: ticks and returns
// true iff `context` is set and requests a stop.
inline bool ShouldStop(SolveContext* context) {
  return context != nullptr && context->Checkpoint();
}

}  // namespace internal
}  // namespace soc

#endif  // SOC_CORE_SOLVER_H_
