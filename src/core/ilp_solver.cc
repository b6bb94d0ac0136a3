#include "core/ilp_solver.h"

#include <algorithm>
#include <unordered_map>

#include "common/string_util.h"
#include "core/greedy.h"

namespace soc {

SocIlpModel BuildConjunctiveSocModel(const QueryLog& log,
                                     const DynamicBitset& tuple, int m_eff,
                                     bool presolve) {
  SocIlpModel out;
  out.model.set_sense(lp::ObjectiveSense::kMaximize);

  // x variables. With presolve, attributes outside t (fixed to zero in the
  // paper's formulation) are omitted; without it they are kept with an
  // upper bound of zero.
  std::vector<int> attr_to_x(log.num_attributes(), -1);
  for (int attr = 0; attr < log.num_attributes(); ++attr) {
    const bool in_tuple = tuple.Test(attr);
    if (presolve && !in_tuple) continue;
    attr_to_x[attr] = out.model.AddVariable(
        StrFormat("x_%s", log.schema().name(attr).c_str()), 0.0,
        in_tuple ? 1.0 : 0.0, 0.0, /*is_integer=*/true);
    out.x_attributes.push_back(attr);
  }
  out.num_x = static_cast<int>(out.x_attributes.size());

  // Budget row: Σ x_j <= m_eff.
  const int budget = out.model.AddConstraint(
      "budget", lp::ConstraintSense::kLessEqual, m_eff);
  for (int j = 0; j < out.num_x; ++j) out.model.AddTerm(budget, j, 1.0);

  // y variables and linking rows. The literal model gives every query a y
  // of weight 1; with presolve each distinct query with q ⊆ t and
  // |q| <= m_eff gets one y, weighted by its multiplicity.
  std::vector<double> y_weights;
  if (presolve) {
    std::unordered_map<DynamicBitset, int, DynamicBitsetHash> index;
    for (int i = 0; i < log.size(); ++i) {
      const DynamicBitset& q = log.query(i);
      if (static_cast<int>(q.Count()) > m_eff || !q.IsSubsetOf(tuple)) {
        continue;
      }
      const auto [it, inserted] =
          index.emplace(q, static_cast<int>(out.y_queries.size()));
      if (inserted) {
        out.y_queries.push_back(i);
        y_weights.push_back(1.0);
      } else {
        y_weights[it->second] += 1.0;
      }
    }
  } else {
    for (int i = 0; i < log.size(); ++i) out.y_queries.push_back(i);
    y_weights.assign(log.size(), 1.0);
  }
  out.num_y = static_cast<int>(out.y_queries.size());
  for (int j = 0; j < out.num_y; ++j) {
    const int i = out.y_queries[j];
    const int y = out.model.AddBinaryVariable(StrFormat("y_%d", i),
                                              y_weights[j]);
    log.query(i).ForEachSetBit([&](int attr) {
      const int row = out.model.AddConstraint(
          StrFormat("link_%d_%d", i, attr), lp::ConstraintSense::kLessEqual,
          0.0);
      out.model.AddTerm(row, y, 1.0);
      out.model.AddTerm(row, attr_to_x[attr], -1.0);
    });
  }
  return out;
}

namespace {

// Maps an early-stop MIP status to the degradation reason, preferring the
// context's own verdict when it fired (so cancellation and tick budgets
// are not misreported as deadline expiry).
StopReason MipStopReason(lp::SolveStatus status, const SolveContext* context) {
  if (context != nullptr && context->stop_requested()) {
    return context->stop_reason();
  }
  return status == lp::SolveStatus::kDeadlineExceeded
             ? StopReason::kDeadline
             : StopReason::kResourceLimit;
}

}  // namespace

StatusOr<SocSolution> IlpSocSolver::SolveWithContext(
    const QueryLog& log, const DynamicBitset& tuple, int m,
    SolveContext* context) const {
  const int m_eff = internal::EffectiveBudget(log, tuple, m);
  SocIlpModel soc_model = [&] {
    const PhaseScope phase(context, "build_model");
    return BuildConjunctiveSocModel(log, tuple, m_eff, options_.presolve);
  }();

  lp::MipOptions mip_options = options_.mip;
  mip_options.context = context;
  if (options_.seed_with_greedy) {
    const PhaseScope phase(context, "greedy_seed");
    const GreedySolver greedy(GreedyKind::kConsumeAttrCumul);
    SOC_ASSIGN_OR_RETURN(SocSolution seed, greedy.Solve(log, tuple, m_eff));
    std::vector<double> x0(soc_model.model.num_variables(), 0.0);
    for (int j = 0; j < soc_model.num_x; ++j) {
      if (seed.selected.Test(soc_model.x_attributes[j])) x0[j] = 1.0;
    }
    for (int j = 0; j < soc_model.num_y; ++j) {
      if (log.query(soc_model.y_queries[j]).IsSubsetOf(seed.selected)) {
        x0[soc_model.num_x + j] = 1.0;
      }
    }
    mip_options.initial_solution = std::move(x0);
  }

  SOC_ASSIGN_OR_RETURN(lp::MipResult mip,
                       lp::SolveMip(soc_model.model, mip_options));
  if (!mip.has_solution && mip.status == lp::SolveStatus::kInfeasible) {
    // Cannot happen for this formulation (all-zeros is feasible); guard
    // against solver regressions anyway.
    return InternalError("SOC ILP reported infeasible");
  }

  DynamicBitset selected(log.num_attributes());
  if (mip.has_solution) {
    for (int j = 0; j < soc_model.num_x; ++j) {
      if (mip.x[j] > 0.5) selected.Set(soc_model.x_attributes[j]);
    }
  }
  // Without an incumbent (search stopped before any integral point and no
  // greedy seed), the frequency padding below still serves a valid
  // selection, degraded.
  internal::PadSelection(log, tuple, m_eff, &selected);
  SocSolution solution = internal::FinishSolution(
      log, std::move(selected),
      /*proved_optimal=*/mip.status == lp::SolveStatus::kOptimal);
  solution.metrics.emplace_back("nodes",
                                static_cast<double>(mip.nodes_explored));
  solution.metrics.emplace_back("lp_iterations",
                                static_cast<double>(mip.lp_iterations));
  solution.metrics.emplace_back("best_bound", mip.best_bound);
  if (mip.status != lp::SolveStatus::kOptimal) {
    internal::MarkDegraded(MipStopReason(mip.status, context), &solution);
  }
  return solution;
}

}  // namespace soc
