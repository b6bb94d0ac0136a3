#include "layers.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "boolean/evaluator.h"
#include "boolean/log_stats.h"
#include "common/solve_context.h"
#include "common/timer.h"
#include "core/solver_registry.h"
#include "itemsets/maximal_dfs.h"
#include "itemsets/random_walk.h"
#include "itemsets/transaction_db.h"
#include "kernels/coverage.h"
#include "kernels/kernels.h"
#include "stats.h"

namespace perfbench {
namespace {

using soc::DynamicBitset;
using soc::QueryLog;

double MetricOf(const soc::SocSolution& solution, const std::string& key) {
  for (const auto& [name, value] : solution.metrics) {
    if (name == key) return value;
  }
  return 0;
}

// Times `f` as one span `name` under `parent`, appending the duration
// (µs) to `samples`.
class Timer {
 public:
  Timer(SpanLog* spans, std::int64_t request, std::int64_t parent)
      : spans_(spans), request_(request), parent_(parent) {}

  template <typename F>
  auto Run(const std::string& name, std::vector<double>* samples, F&& f) {
    const int id = spans_->Name(name);
    const double start = spans_->NowUs();
    auto result = f();
    const double end = spans_->NowUs();
    spans_->Add(Span{id, spans_->NewId(), parent_, request_, start, end});
    samples->push_back(end - start);
    return result;
  }

 private:
  SpanLog* const spans_;
  const std::int64_t request_;
  const std::int64_t parent_;
};

}  // namespace

const std::vector<std::string>& ReportedSolvers() {
  static const std::vector<std::string> solvers = {
      "ConsumeAttr",     "ConsumeAttrCumul", "ConsumeQueries",
      "BranchAndBound",  "BruteForce",       "ILP",
      "MaxFreqItemSets", "MaxFreqItemSets-dfs", "Fallback"};
  return solvers;
}

void MeasureLayers(const Workload& workload, SpanLog* spans,
                   std::map<std::string, double>* metrics,
                   std::map<std::string, std::string>* absent,
                   std::vector<std::string>* notes) {
  std::set<std::string> mix;
  for (const DeckEntry& entry : workload.deck) mix.insert(entry.solver);
  // Mining on greedy_biglog's 20k-query, M=64 log is not part of any
  // request there, and would dominate the run.
  const bool mine = mix.count("MaxFreqItemSets") > 0 ||
                    mix.count("MaxFreqItemSets-dfs") > 0;

  std::map<std::string, std::vector<double>> us;
  std::map<std::string, std::vector<double>> counts;
  double streamed_bytes = 0;
  const auto greedy = soc::CreateSolverByName("ConsumeAttr").value();
  const auto cumul = soc::CreateSolverByName("ConsumeAttrCumul").value();
  std::map<std::string, std::unique_ptr<soc::SocSolver>> solvers;
  for (const std::string& name : mix) {
    solvers[name] = soc::CreateSolverByName(name).value();
  }

  // The sample is spaced evenly through the deck's lines in sorted order,
  // not in play order: the car decks hold the same entries on every seed,
  // in a seeded order, and so get the same sample on every seed.
  std::vector<std::size_t> sorted(workload.deck.size());
  std::iota(sorted.begin(), sorted.end(), 0);
  std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
    return workload.deck[a].line < workload.deck[b].line;
  });
  const int sample = std::min<int>(kLayerSample,
                                   static_cast<int>(workload.deck.size()));
  int mining_cut = 0;
  for (int i = 0; i < sample; ++i) {
    const DeckEntry& entry = workload.deck[sorted[
        static_cast<std::size_t>(i) * workload.deck.size() /
        static_cast<std::size_t>(sample)]];
    const QueryLog& log =
        workload.multitenant
            ? workload.tenants[static_cast<std::size_t>(entry.tenant)].logs[0]
            : workload.log;
    const std::int64_t root = spans->NewId();
    const int root_name = spans->Name("layers.request");
    const double root_start = spans->NowUs();
    Timer timer(spans, i, root);

    // boolean: statistics that depend only on the log, then the
    // per-request view and the final recount.
    timer.Run("boolean.QueryLog::AttributeFrequencies", &us["attr_freq"],
              [&] { return log.AttributeFrequencies(); });
    std::vector<int> weights;
    const QueryLog collapsed = timer.Run(
        "boolean.CollapseDuplicateQueries", &us["collapse"],
        [&] { return soc::CollapseDuplicateQueries(log, &weights); });
    counts["distinct_ratio"].push_back(
        static_cast<double>(log.size()) / std::max(1, collapsed.size()));
    const soc::SatisfiableQueryView view = timer.Run(
        "boolean.SatisfiableQueryView", &us["view"],
        [&] { return soc::SatisfiableQueryView(log, entry.tuple); });
    const DynamicBitset selection =
        greedy->Solve(log, entry.tuple, entry.m)->selected;
    timer.Run("boolean.CountSatisfiedQueries", &us["recount"],
              [&] { return soc::CountSatisfiedQueries(log, selection); });

    // kernels: the blocked layout of the request's satisfiable queries,
    // and the three scans the solvers run over it.
    const auto blocks = timer.Run(
        "kernels.CoverageBlockSet", &us["layout"], [&] {
          return soc::kernels::CoverageBlockSet(
              view.queries(), static_cast<std::size_t>(log.num_attributes()));
        });
    const double pass_bytes = static_cast<double>(blocks.num_queries()) *
                              blocks.words_per_query() * 8.0;
    streamed_bytes += pass_bytes;
    timer.Run("kernels.CountCovered", &us["count_covered"], [&] {
      return soc::kernels::CountCovered(blocks, selection);
    });
    std::vector<long long> gains(
        static_cast<std::size_t>(log.num_attributes()), 0);
    timer.Run("kernels.CoverageGain", &us["coverage_gain"], [&] {
      return soc::kernels::CoverageGain(blocks, DynamicBitset(selection.size()),
                                        gains.data(), nullptr);
    });
    // A mid-search B&B node: half the selection chosen, the attributes
    // outside the tuple rejected.
    DynamicBitset chosen(selection.size());
    int taken = 0;
    for (std::size_t b = 0; b < selection.size(); ++b) {
      if (selection.Test(b) && taken < entry.m / 2) {
        chosen.Set(b);
        ++taken;
      }
    }
    const DynamicBitset rejected = entry.tuple.Complement();
    timer.Run("kernels.CoverageBound", &us["coverage_bound"], [&] {
      return soc::kernels::CoverageBound(blocks, chosen, rejected,
                                         entry.m - taken);
    });

    // core: a standalone solve by every solver in the workload's mix.
    for (const auto& [name, solver] : solvers) {
      const auto solved = timer.Run(
          "core.SolveWithContext." + name, &us["solve." + name],
          [&] { return solver->SolveWithContext(log, entry.tuple, entry.m,
                                                nullptr); });
      if (!solved.ok()) continue;
      if (name == "BranchAndBound") {
        counts["bnb_nodes"].push_back(MetricOf(*solved, "nodes"));
      } else if (name == "BruteForce") {
        counts["combinations"].push_back(MetricOf(*solved, "combinations"));
      } else if (name == "ILP") {
        counts["ilp_nodes"].push_back(MetricOf(*solved, "nodes"));
        counts["lp_iterations"].push_back(MetricOf(*solved, "lp_iterations"));
      }
    }

    // itemsets: the MFI miners on ~Q at the threshold MaxFreqItemSets
    // seeds itself with (the ConsumeAttrCumul lower bound).
    if (mine && i < kMiningSample) {
      const int threshold = std::max(
          1, cumul->Solve(log, entry.tuple, entry.m)->satisfied_queries);
      const auto db =
          soc::itemsets::TransactionDatabase::FromComplementedQueryLog(log);
      // Some requests' thresholds make mining exponential; each call
      // stops at kMiningBudgetS.
      soc::SolveContext walk_context(
          soc::Deadline::AfterSeconds(kMiningBudgetS));
      const auto walk = timer.Run(
          "itemsets.MineMaximalItemsetsRandomWalk", &us["mfi_walk"], [&] {
            return soc::itemsets::MineMaximalItemsetsRandomWalk(
                db, threshold, {}, nullptr, &walk_context);
          });
      soc::SolveContext dfs_context(
          soc::Deadline::AfterSeconds(kMiningBudgetS));
      const auto dfs = timer.Run("itemsets.MineMaximalItemsetsDfs",
                                 &us["mfi_dfs"], [&] {
        return soc::itemsets::MineMaximalItemsetsDfs(db, threshold, {},
                                                     &dfs_context);
      });
      mining_cut += walk_context.stop_requested();
      mining_cut += dfs_context.stop_requested();
      if (!walk.ok() || !dfs.ok()) continue;
      counts["maximal_itemsets"].push_back(static_cast<double>(walk->size()));
    }
    spans->Add(Span{root_name, root, 0, i, root_start, spans->NowUs()});
  }

  const auto median = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : Median(v);
  };
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  auto& out = *metrics;
  out["boolean.attr_freq_us"] = median(us["attr_freq"]);
  out["boolean.collapse_us"] = median(us["collapse"]);
  out["boolean.distinct_ratio"] = mean(counts["distinct_ratio"]);
  out["boolean.recount_us"] = median(us["recount"]);
  out["boolean.satisfiable_view_us"] = median(us["view"]);

  // GB/s from the bytes one call streams: the words of the request's
  // satisfiable queries (written once by the layout, read once by a scan).
  const double per_pass = streamed_bytes / std::max(1, sample);
  const auto gbps = [&](const char* key) {
    const double t = median(us[key]);
    return t > 0 ? per_pass / t / 1e3 : 0.0;
  };
  for (const char* k :
       {"layout", "count_covered", "coverage_gain", "coverage_bound"}) {
    out[std::string("kernels.") + k + "_us"] = median(us[k]);
    out[std::string("kernels.") + k + "_gbps"] = gbps(k);
  }
  out["kernels.active_tier"] =
      static_cast<double>(soc::kernels::ActiveTier());

  for (const std::string& name : ReportedSolvers()) {
    const std::string key = "core.solve_ms." + name;
    if (mix.count(name) == 0) {
      out[key] = 0;
      (*absent)[key] = "not in this workload's solver mix";
      continue;
    }
    out[key] = median(us["solve." + name]) / 1e3;
  }
  const auto count_metric = [&](const std::string& key, const char* sample_key,
                                const char* solver) {
    out[key] = mean(counts[sample_key]);
    if (mix.count(solver) == 0) {
      (*absent)[key] = std::string(solver) + " is not in this workload's mix";
    }
  };
  count_metric("core.bnb.nodes", "bnb_nodes", "BranchAndBound");
  count_metric("core.bruteforce.combinations", "combinations", "BruteForce");
  count_metric("lp.ilp_nodes", "ilp_nodes", "ILP");
  count_metric("lp.lp_iterations", "lp_iterations", "ILP");

  out["itemsets.mfi_walk_ms"] = median(us["mfi_walk"]) / 1e3;
  out["itemsets.mfi_dfs_ms"] = median(us["mfi_dfs"]) / 1e3;
  out["itemsets.maximal_itemsets"] = mean(counts["maximal_itemsets"]);
  if (!mine) {
    for (const char* key : {"itemsets.mfi_walk_ms", "itemsets.mfi_dfs_ms",
                            "itemsets.maximal_itemsets"}) {
      (*absent)[key] = "no MaxFreqItemSets(-dfs) request in this workload";
    }
  }
  if (mining_cut > 0) {
    notes->push_back(std::to_string(mining_cut) +
                     " MFI mining calls stopped at their " +
                     std::to_string(kMiningBudgetS) +
                     " s budget: itemsets.* read a floor");
  }
}

}  // namespace perfbench
