#include "serve/cost_model.h"

#include <algorithm>
#include <cmath>

namespace soc::serve {

namespace {

// Relative cost of one solve per solver tier, calibrated against the
// bench suite's ordering (greedy < mining < LP < exact enumeration). The
// absolute scale is set by kBaseCostMs below; the EWMA corrects both as
// soon as real samples arrive.
double TierMultiplier(const std::string& solver) {
  if (solver == "BruteForce") return 200.0;
  if (solver == "BranchAndBound") return 50.0;
  if (solver == "ILP") return 20.0;
  if (solver == "MaxFreqItemSets") return 8.0;
  if (solver == "MaxFreqItemSets-dfs") return 8.0;
  if (solver == "ConsumeQueries") return 2.0;
  if (solver == "ConsumeAttrCumul") return 1.5;
  if (solver == "ConsumeAttr") return 1.0;
  if (solver == "Fallback") return 1.0;
  return 10.0;  // Unknown tier: assume mid-ladder.
}

// Prior cost of the cheapest tier on a 1k-query log, milliseconds.
constexpr double kBaseCostMs = 0.05;

}  // namespace

CostModel::CostModel(int num_workers, CostModelOptions options)
    : num_workers_(std::max(1, num_workers)), options_(options) {}

double CostModel::PriorMs(const CostFeatures& features,
                          const std::string& solver, int m) {
  // Work scales with the (collapsed) query volume; the m term reflects
  // that a larger selection budget widens every tier's search.
  const double effective_queries =
      std::max(1.0, features.num_queries * features.collapse_ratio);
  const double size_factor = effective_queries / 1000.0;
  const double m_factor = 1.0 + 0.1 * std::max(0, m);
  return kBaseCostMs * TierMultiplier(solver) * size_factor * m_factor;
}

double CostModel::PredictSolveMs(const CostFeatures& features,
                                 const std::string& solver, int m) const {
  const double prior = PriorMs(features, solver, m);
  MutexLock lock(mutex_);
  const auto it = observed_.find(solver);
  if (it == observed_.end() || it->second.samples == 0) return prior;
  const Ewma& ewma = it->second;
  if (ewma.samples >= options_.warmup_samples) return ewma.value_ms;
  // Warm-up: fade the prior out linearly as samples accumulate.
  const double w = static_cast<double>(ewma.samples) /
                   static_cast<double>(options_.warmup_samples);
  return (1.0 - w) * prior + w * ewma.value_ms;
}

double CostModel::PredictedQueueWaitMs() const {
  return BacklogMs() / num_workers_;
}

double CostModel::BacklogMs() const {
  return static_cast<double>(backlog_us_.load(std::memory_order_relaxed)) /
         1000.0;
}

void CostModel::Charge(double predicted_ms) {
  backlog_us_.fetch_add(static_cast<std::int64_t>(predicted_ms * 1000.0),
                        std::memory_order_relaxed);
}

void CostModel::Settle(double predicted_ms) {
  backlog_us_.fetch_sub(static_cast<std::int64_t>(predicted_ms * 1000.0),
                        std::memory_order_relaxed);
}

void CostModel::Observe(const std::string& solver, double solve_ms) {
  MutexLock lock(mutex_);
  Ewma& ewma = observed_[solver];
  if (ewma.samples == 0) {
    ewma.value_ms = solve_ms;
  } else {
    ewma.value_ms = options_.ewma_alpha * solve_ms +
                    (1.0 - options_.ewma_alpha) * ewma.value_ms;
  }
  ++ewma.samples;
}

double CostModel::RetryAfterMs() const {
  return std::max(1.0, PredictedQueueWaitMs() / 2.0);
}

}  // namespace soc::serve
