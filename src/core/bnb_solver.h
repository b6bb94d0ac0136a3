// A combinatorial branch-and-bound for SOC-CB-QL (beyond-paper exact
// algorithm; no LP machinery involved).
//
// Search space: include/exclude decisions over the candidate attributes
// (attributes of t occurring in satisfiable, within-budget queries),
// ordered by descending query-log frequency so strong incumbents appear
// early. At each node with chosen set S and rejected set R the bound is
//
//   satisfied(S) + |{ q : q ∩ R = ∅, |q \ S| <= m - |S| }|
//
// — every query not yet satisfied must avoid rejected attributes and fit
// in the remaining budget to ever be counted. The search starts from the
// ConsumeAttrCumul incumbent. Exact, and in practice far faster than the
// plain brute force on structured workloads (bench/ablation_exact).

#ifndef SOC_CORE_BNB_SOLVER_H_
#define SOC_CORE_BNB_SOLVER_H_

#include <cstdint>

#include "core/solver.h"

namespace soc {

struct BnbSocOptions {
  // Stop past this many search nodes and surrender the incumbent
  // (StopReason::kResourceLimit, partial-result contract of
  // core/solver.h); <= 0 means unlimited.
  std::int64_t max_nodes = 100'000'000;
};

class BnbSocSolver : public CollapsibleSolver {
 public:
  explicit BnbSocSolver(BnbSocOptions options = {}) : options_(options) {}

  std::string name() const override { return "BranchAndBound"; }

 private:
  StatusOr<SocSolution> Run(const QueryLog& log,
                            const std::vector<int>* weights,
                            const DynamicBitset& tuple, int m,
                            SolveContext* context) const override;

  BnbSocOptions options_;
};

}  // namespace soc

#endif  // SOC_CORE_BNB_SOLVER_H_
