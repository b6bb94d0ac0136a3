// BruteForce-SOC-CB-QL (Sec IV.A): exhaustively tries m-subsets of the new
// tuple's attributes.
//
// Two modes: `naive` enumerates subsets of all attributes of t exactly as
// the paper describes; the default mode first prunes to *candidate*
// attributes (attributes of t that occur in at least one satisfiable
// query), which preserves optimality — attributes outside every
// satisfiable query can never change the objective — and typically shrinks
// the search space by orders of magnitude (bench/ablation_bruteforce
// quantifies this).

#ifndef SOC_CORE_BRUTE_FORCE_H_
#define SOC_CORE_BRUTE_FORCE_H_

#include <cstdint>

#include "core/solver.h"

namespace soc {

struct BruteForceOptions {
  // Restrict enumeration to candidate attributes (see above).
  bool prune_candidates = true;
  // Refuse instances with more combinations than this: instead of
  // enumerating, the solver degrades to the frequency-padded incumbent
  // (StopReason::kResourceLimit, partial-result contract of
  // core/solver.h). <= 0 means unlimited.
  std::uint64_t max_combinations = 50'000'000;
};

class BruteForceSolver : public CollapsibleSolver {
 public:
  explicit BruteForceSolver(BruteForceOptions options = {})
      : options_(options) {}

  std::string name() const override { return "BruteForce"; }

 private:
  StatusOr<SocSolution> Run(const QueryLog& log,
                            const std::vector<int>* weights,
                            const DynamicBitset& tuple, int m,
                            SolveContext* context) const override;

  BruteForceOptions options_;
};

}  // namespace soc

#endif  // SOC_CORE_BRUTE_FORCE_H_
