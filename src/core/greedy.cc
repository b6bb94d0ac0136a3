#include "core/greedy.h"

#include <algorithm>
#include <limits>

#include "kernels/kernels.h"

namespace soc {

namespace {

// Top-m attributes of `tuple` by query-log frequency (ties: lower index).
DynamicBitset ConsumeAttr(const std::vector<int>& freq,
                          const DynamicBitset& tuple, int m_eff) {
  std::vector<int> attrs = tuple.SetBits();
  std::sort(attrs.begin(), attrs.end(), [&freq](int a, int b) {
    if (freq[a] != freq[b]) return freq[a] > freq[b];
    return a < b;
  });
  DynamicBitset selected(tuple.size());
  for (int i = 0; i < m_eff; ++i) selected.Set(attrs[i]);
  return selected;
}

}  // namespace

namespace internal {

DynamicBitset ConsumeAttrCumulPicks(const QueryLog& log,
                                    const std::vector<int>* weights,
                                    const std::vector<int>& freq,
                                    const DynamicBitset& tuple, int m_eff,
                                    SolveContext* context) {
  DynamicBitset selected(log.num_attributes());
  std::vector<int> remaining = tuple.SetBits();

  // One blocked layout of the full log per solve (the co-occurrence
  // statistic counts every query, not just q ⊆ t). A single CoverageGain
  // scan per step then yields every candidate's joint count at once:
  // gains[a] = Σ multiplicity over {q : selected ∪ {a} ⊆ q}.
  std::vector<long long> weights64;
  if (weights != nullptr) weights64.assign(weights->begin(), weights->end());
  kernels::ScratchScope scratch;
  const kernels::CoverageBlockSet blocks(
      log.queries(), static_cast<std::size_t>(log.num_attributes()),
      weights == nullptr ? nullptr : weights64.data(), &scratch.arena());
  long long* gains = scratch.arena().AllocateWeights(
      static_cast<std::size_t>(log.num_attributes()));

  for (int step = 0; step < m_eff; ++step) {
    // Ticks once per 64-query block (the expensive unit of work here);
    // on stop the partial selection is padded by the caller.
    const kernels::GainScan scan =
        kernels::CoverageGain(blocks, selected, gains, context);
    if (!scan.completed) return selected;
    int best_attr = -1;
    long long best_cooccur = -1;
    int best_freq = -1;
    for (int attr : remaining) {
      const long long cooccur = gains[attr];
      if (cooccur > best_cooccur ||
          (cooccur == best_cooccur && freq[attr] > best_freq)) {
        best_attr = attr;
        best_cooccur = cooccur;
        best_freq = freq[attr];
      }
    }
    if (best_cooccur == 0) {
      // No query contains the selection plus any candidate: fall back to
      // individual frequency for the remaining picks.
      std::sort(remaining.begin(), remaining.end(), [&freq](int a, int b) {
        if (freq[a] != freq[b]) return freq[a] > freq[b];
        return a < b;
      });
      for (int attr : remaining) {
        if (static_cast<int>(selected.Count()) >= m_eff) break;
        selected.Set(attr);
      }
      return selected;
    }
    selected.Set(best_attr);
    remaining.erase(std::find(remaining.begin(), remaining.end(), best_attr));
  }
  return selected;
}

}  // namespace internal

namespace {

DynamicBitset ConsumeQueries(const QueryLog& log, const DynamicBitset& tuple,
                             int m_eff, SolveContext* context) {
  const SatisfiableQueryView view(log, tuple);
  DynamicBitset selected(log.num_attributes());
  std::vector<bool> used(view.size(), false);

  while (static_cast<int>(selected.Count()) < m_eff) {
    if (internal::ShouldStop(context)) return selected;
    // The satisfiable query with the fewest new attributes that still fits.
    int best_query = -1;
    std::size_t best_new = std::numeric_limits<std::size_t>::max();
    const int slack = m_eff - static_cast<int>(selected.Count());
    for (int i = 0; i < view.size(); ++i) {
      if (used[i]) continue;
      DynamicBitset new_attrs = view.query(i);
      new_attrs.AndNot(selected);
      const std::size_t added = new_attrs.Count();
      if (added > static_cast<std::size_t>(slack)) continue;
      if (added < best_new) {
        best_new = added;
        best_query = i;
      }
    }
    if (best_query < 0) break;  // Nothing fits: fill by frequency below.
    used[best_query] = true;
    selected |= view.query(best_query);
  }
  return selected;
}

}  // namespace

const char* GreedyKindToString(GreedyKind kind) {
  switch (kind) {
    case GreedyKind::kConsumeAttr:
      return "ConsumeAttr";
    case GreedyKind::kConsumeAttrCumul:
      return "ConsumeAttrCumul";
    case GreedyKind::kConsumeQueries:
      return "ConsumeQueries";
  }
  return "Greedy";
}

StatusOr<SocSolution> GreedySolver::Run(const QueryLog& log,
                                        const std::vector<int>* weights,
                                        const DynamicBitset& tuple, int m,
                                        SolveContext* context) const {
  const int m_eff = internal::EffectiveBudget(log, tuple, m);
  // The two frequency greedies rank by it; ConsumeQueries only pads with
  // it, so there it is computed when padding needs it.
  std::vector<int> freq;
  if (kind_ != GreedyKind::kConsumeQueries) {
    freq = internal::AttributeFrequencies(log, weights);
  }
  DynamicBitset selected(log.num_attributes());
  // Entry checkpoint: a context that is already stopped (or expires
  // immediately) skips straight to the frequency padding, which doubles as
  // the cheapest valid heuristic.
  if (!internal::ShouldStop(context)) {
    switch (kind_) {
      case GreedyKind::kConsumeAttr:
        selected = ConsumeAttr(freq, tuple, m_eff);
        break;
      case GreedyKind::kConsumeAttrCumul:
        selected = internal::ConsumeAttrCumulPicks(log, weights, freq, tuple,
                                                   m_eff, context);
        break;
      case GreedyKind::kConsumeQueries:
        selected = ConsumeQueries(log, tuple, m_eff, context);
        break;
    }
  }
  if (freq.empty()) {
    internal::PadSelection(log, tuple, m_eff, &selected, weights);
  } else {
    internal::PadSelection(freq, tuple, m_eff, &selected);
  }
  SocSolution solution = internal::FinishSolution(
      log, std::move(selected), /*proved_optimal=*/false, weights);
  if (context != nullptr && context->stop_requested()) {
    internal::MarkDegraded(context->stop_reason(), &solution);
  }
  return solution;
}

}  // namespace soc
