#include "core/bnb_solver.h"

#include <algorithm>

#include "core/greedy.h"
#include "kernels/kernels.h"

namespace soc {

namespace {

class BnbSearch {
 public:
  BnbSearch(const kernels::CoverageBlockSet* queries,
            std::vector<int> candidates, int num_attrs, int budget,
            std::int64_t max_nodes, SolveContext* context)
      : queries_(queries),
        candidates_(std::move(candidates)),
        budget_(budget),
        max_nodes_(max_nodes),
        context_(context),
        chosen_(num_attrs),
        rejected_(num_attrs),
        best_selection_(num_attrs) {}

  void SeedIncumbent(const DynamicBitset& selection, int count) {
    best_selection_ = selection;
    best_count_ = count;
  }

  void Run() { Visit(0, 0); }

  const DynamicBitset& best_selection() const { return best_selection_; }
  std::int64_t nodes() const { return nodes_; }
  // kNone iff the search space was exhausted (incumbent proved optimal).
  StopReason stop_reason() const { return stop_reason_; }

 private:
  void Visit(std::size_t index, int num_chosen) {
    if (stop_reason_ != StopReason::kNone) return;
    if (max_nodes_ > 0 && ++nodes_ > max_nodes_) {
      stop_reason_ = StopReason::kResourceLimit;
      return;
    }
    if (internal::ShouldStop(context_)) {
      stop_reason_ = context_->stop_reason();
      return;
    }

    // Bound: queries already satisfied plus queries that still fit
    // (|q \ chosen| ≤ slack and q avoids every rejected attribute), in
    // one batch kernel pass over the blocked layout.
    const int slack = budget_ - num_chosen;
    const kernels::BoundScan bound =
        kernels::CoverageBound(*queries_, chosen_, rejected_, slack);
    const int satisfied = static_cast<int>(bound.satisfied);
    const int potential = static_cast<int>(bound.potential);
    if (satisfied > best_count_) {
      best_count_ = satisfied;
      best_selection_ = chosen_;
    }
    if (satisfied + potential <= best_count_) return;
    if (num_chosen == budget_ || index == candidates_.size()) return;

    const int attr = candidates_[index];
    // Include-first: frequency ordering makes this the promising branch.
    chosen_.Set(attr);
    Visit(index + 1, num_chosen + 1);
    chosen_.Reset(attr);
    if (stop_reason_ != StopReason::kNone) return;

    rejected_.Set(attr);
    Visit(index + 1, num_chosen);
    rejected_.Reset(attr);
  }

  const kernels::CoverageBlockSet* const queries_;
  const std::vector<int> candidates_;
  const int budget_;
  const std::int64_t max_nodes_;
  SolveContext* const context_;

  DynamicBitset chosen_;
  DynamicBitset rejected_;
  DynamicBitset best_selection_;
  int best_count_ = -1;
  std::int64_t nodes_ = 0;
  StopReason stop_reason_ = StopReason::kNone;
};

}  // namespace

StatusOr<SocSolution> BnbSocSolver::Run(const QueryLog& log,
                                        const std::vector<int>* weights,
                                        const DynamicBitset& tuple, int m,
                                        SolveContext* context) const {
  const int m_eff = internal::EffectiveBudget(log, tuple, m);
  const int num_attrs = log.num_attributes();

  // Queries that a size-m_eff compression of t could ever satisfy.
  const internal::SatisfiableQueries relevant(log, weights, tuple, m_eff);
  const DynamicBitset& candidate_union = relevant.attributes;

  // One frequency vector per solve orders the candidates (descending log
  // frequency, ties: index) and drives the seed and both paddings.
  const std::vector<int> freq = internal::AttributeFrequencies(log, weights);
  std::vector<int> candidates = candidate_union.SetBits();
  std::sort(candidates.begin(), candidates.end(), [&freq](int a, int b) {
    if (freq[a] != freq[b]) return freq[a] > freq[b];
    return a < b;
  });

  kernels::ScratchScope scratch;
  const kernels::CoverageBlockSet blocks = relevant.Blocks(&scratch.arena());
  BnbSearch search(&blocks, std::move(candidates), num_attrs, m_eff,
                   options_.max_nodes, context);

  // Padded ConsumeAttrCumul incumbent, restricted to candidate attributes
  // for a valid seed; run context-free so an already-stopped context still
  // yields a usable anytime incumbent. Every query the seed satisfies is
  // relevant, so the blocked layout counts it.
  DynamicBitset seed = internal::ConsumeAttrCumulPicks(
      log, weights, freq, tuple, m_eff, /*context=*/nullptr);
  internal::PadSelection(freq, tuple, m_eff, &seed);
  seed &= candidate_union;
  search.SeedIncumbent(
      seed, static_cast<int>(kernels::AccumulateWeighted(blocks, seed)));

  search.Run();

  DynamicBitset selected = search.best_selection();
  internal::PadSelection(freq, tuple, m_eff, &selected);
  SocSolution solution = internal::FinishSolution(
      log, std::move(selected),
      /*proved_optimal=*/search.stop_reason() == StopReason::kNone, weights);
  solution.metrics.emplace_back("nodes", static_cast<double>(search.nodes()));
  if (search.stop_reason() != StopReason::kNone) {
    internal::MarkDegraded(search.stop_reason(), &solution);
  }
  return solution;
}

}  // namespace soc
