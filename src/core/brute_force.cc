#include "core/brute_force.h"

#include <algorithm>

#include "common/combinatorics.h"
#include "kernels/kernels.h"

namespace soc {

StatusOr<SocSolution> BruteForceSolver::Run(const QueryLog& log,
                                            const std::vector<int>* weights,
                                            const DynamicBitset& tuple, int m,
                                            SolveContext* context) const {
  const int m_eff = internal::EffectiveBudget(log, tuple, m);
  const int num_attrs = log.num_attributes();
  // Only queries with q ⊆ t and |q| <= m can ever be satisfied by an
  // m-attribute compression, so attributes outside their union can never
  // change the objective and are left to padding.
  const internal::SatisfiableQueries satisfiable(log, weights, tuple, m_eff);
  const std::vector<int> pool = options_.prune_candidates
                                    ? satisfiable.attributes.SetBits()
                                    : tuple.SetBits();

  const int k = std::min<int>(m_eff, static_cast<int>(pool.size()));
  const std::uint64_t combinations =
      BinomialSaturating(static_cast<int>(pool.size()), k);

  StopReason stop = StopReason::kNone;
  DynamicBitset best(num_attrs);
  long long best_count = -1;
  std::uint64_t enumerated = 0;
  if (options_.max_combinations > 0 &&
      combinations > options_.max_combinations) {
    // Refusing the blowup no longer discards the request: the frequency
    // padding below serves the ConsumeAttr-style incumbent, degraded.
    stop = StopReason::kResourceLimit;
  } else {
    // Each enumerated combination costs one batch kernel pass.
    kernels::ScratchScope scratch;
    const kernels::CoverageBlockSet blocks =
        satisfiable.Blocks(&scratch.arena());
    DynamicBitset candidate(num_attrs);
    ForEachCombination(pool, k, [&](const std::vector<int>& combo) {
      if (internal::ShouldStop(context)) {
        stop = context->stop_reason();
        return false;
      }
      ++enumerated;
      candidate.ResetAll();
      for (int attr : combo) candidate.Set(attr);
      const long long count = kernels::AccumulateWeighted(blocks, candidate);
      if (count > best_count) {
        best_count = count;
        best = candidate;
      }
      return true;
    });
  }

  internal::PadSelection(log, tuple, m_eff, &best, weights);
  SocSolution solution = internal::FinishSolution(
      log, std::move(best), /*proved_optimal=*/stop == StopReason::kNone,
      weights);
  solution.metrics.emplace_back("combinations",
                                static_cast<double>(combinations));
  solution.metrics.emplace_back("enumerated", static_cast<double>(enumerated));
  solution.metrics.emplace_back("pool_size", static_cast<double>(pool.size()));
  if (stop != StopReason::kNone) internal::MarkDegraded(stop, &solution);
  return solution;
}

}  // namespace soc
