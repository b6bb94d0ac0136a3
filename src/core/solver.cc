#include "core/solver.h"

#include <algorithm>

#include "common/logging.h"

namespace soc {

bool IsDegraded(const SocSolution& solution) {
  return SolutionStopReason(solution) != StopReason::kNone;
}

StopReason SolutionStopReason(const SocSolution& solution) {
  for (const auto& [key, value] : solution.metrics) {
    if (key == "stop_reason") return static_cast<StopReason>(value);
  }
  return StopReason::kNone;
}

}  // namespace soc

namespace soc::internal {

int EffectiveBudget(const QueryLog& log, const DynamicBitset& tuple, int m) {
  SOC_CHECK_EQ(static_cast<int>(tuple.size()), log.num_attributes());
  SOC_CHECK_GE(m, 0);
  return std::min<int>(m, static_cast<int>(tuple.Count()));
}

std::vector<int> AttributeFrequencies(const QueryLog& log,
                                      const std::vector<int>* weights) {
  if (weights == nullptr) return log.AttributeFrequencies();
  SOC_CHECK_EQ(static_cast<int>(weights->size()), log.size());
  std::vector<int> freq(log.num_attributes(), 0);
  for (int i = 0; i < log.size(); ++i) {
    const int weight = (*weights)[i];
    log.query(i).ForEachSetBit(
        [&freq, weight](int attr) { freq[attr] += weight; });
  }
  return freq;
}

void PadSelection(const std::vector<int>& freq, const DynamicBitset& tuple,
                  int target_size, DynamicBitset* selected) {
  SOC_CHECK(selected->IsSubsetOf(tuple));
  int have = static_cast<int>(selected->Count());
  if (have >= target_size) return;

  std::vector<int> spare;
  tuple.ForEachSetBit([&](int attr) {
    if (!selected->Test(attr)) spare.push_back(attr);
  });
  std::sort(spare.begin(), spare.end(), [&freq](int a, int b) {
    if (freq[a] != freq[b]) return freq[a] > freq[b];
    return a < b;
  });
  for (int attr : spare) {
    if (have >= target_size) break;
    selected->Set(attr);
    ++have;
  }
  SOC_CHECK_EQ(have, target_size);
}

void PadSelection(const QueryLog& log, const DynamicBitset& tuple,
                  int target_size, DynamicBitset* selected,
                  const std::vector<int>* weights) {
  const bool pads = static_cast<int>(selected->Count()) < target_size;
  PadSelection(pads ? AttributeFrequencies(log, weights) : std::vector<int>(),
               tuple, target_size, selected);
}

SocSolution FinishSolution(const QueryLog& log, DynamicBitset selected,
                           bool proved_optimal,
                           const std::vector<int>* weights) {
  SocSolution solution;
  solution.satisfied_queries =
      weights == nullptr ? CountSatisfiedQueries(log, selected)
                         : CountSatisfiedWeighted(log, *weights, selected);
  solution.selected = std::move(selected);
  solution.proved_optimal = proved_optimal;
  return solution;
}

SatisfiableQueries::SatisfiableQueries(const QueryLog& log,
                                       const std::vector<int>* multiplicities,
                                       const DynamicBitset& tuple, int budget)
    : attributes(log.num_attributes()) {
  for (int i = 0; i < log.size(); ++i) {
    const DynamicBitset& q = log.query(i);
    if (static_cast<int>(q.Count()) <= budget && q.IsSubsetOf(tuple)) {
      queries.push_back(q);
      if (multiplicities != nullptr) weights.push_back((*multiplicities)[i]);
      attributes |= q;
    }
  }
}

kernels::CoverageBlockSet SatisfiableQueries::Blocks(
    kernels::Arena* arena) const {
  return kernels::CoverageBlockSet(
      queries, attributes.size(), weights.empty() ? nullptr : weights.data(),
      arena);
}

void MarkDegraded(StopReason reason, SocSolution* solution) {
  SOC_CHECK(reason != StopReason::kNone);
  solution->proved_optimal = false;
  solution->metrics.emplace_back("degraded", 1.0);
  solution->metrics.emplace_back("stop_reason", static_cast<double>(reason));
}

}  // namespace soc::internal
