#include "checks.h"

#include <map>
#include <set>
#include <tuple>

#include "boolean/evaluator.h"
#include "core/bnb_solver.h"

namespace perfbench {
namespace {

using soc::DynamicBitset;
using soc::QueryLog;

constexpr std::size_t kMaxMessages = 20;

// Solvers whose answers, unless marked degraded, are optimal.
bool IsExactSolver(const std::string& solver) {
  return solver == "BranchAndBound" || solver == "ILP" ||
         solver == "BruteForce" || solver == "MaxFreqItemSets" ||
         solver == "MaxFreqItemSets-dfs" || solver == "Fallback";
}

std::string SolverName(int id) {
  return id < 0 ? "(unknown)" : SolverNames()[static_cast<std::size_t>(id)];
}

DynamicBitset Selection(const Outcome& r) {
  DynamicBitset selected(r.selected_width);
  for (std::size_t b = 0; b < std::min<std::size_t>(r.selected_width, 64);
       ++b) {
    if ((r.selected >> b) & 1) selected.Set(b);
  }
  return selected;
}

// The program's result-cache key, plus the solver the request named.
struct AnswerKey {
  int tenant;
  std::uint64_t tuple;  // Every multi-tenant schema is narrower than 64.
  int m;
  std::int64_t epoch;
  std::string solver;
  friend bool operator<(const AnswerKey& a, const AnswerKey& b) {
    return std::tie(a.tenant, a.tuple, a.m, a.epoch, a.solver) <
           std::tie(b.tenant, b.tuple, b.m, b.epoch, b.solver);
  }
};

// An answer as the client saw it: selection, value and answering solver.
using Answer = std::tuple<std::uint64_t, int, int>;

class Checker {
 public:
  Checker(const Workload& workload, const Publisher* publisher,
          CheckReport* report)
      : workload_(workload), publisher_(publisher), report_(report) {}

  void Fail(const Outcome& outcome, const std::string& what) {
    ++report_->check_failures;
    if (outcome.phase != Phase::kWarmup && failed_.insert(&outcome).second) {
      ++report_->failed_measured;
    }
    if (report_->failures.size() < kMaxMessages) {
      report_->failures.push_back(
          "deck[" + std::to_string(outcome.deck_index) + "] " + what);
    }
  }

  const QueryLog* LogFor(const DeckEntry& entry, std::int64_t epoch) const {
    if (!workload_.multitenant) return &workload_.log;
    return publisher_ == nullptr ? nullptr
                                 : publisher_->LogOf(entry.tenant, epoch);
  }

  int Optimum(const QueryLog& log, const DynamicBitset& tuple, int m) {
    const auto key = std::make_tuple(&log, tuple.ToString(), m);
    const auto it = optimum_.find(key);
    if (it != optimum_.end()) return it->second;
    const auto solved = soc::BnbSocSolver().Solve(log, tuple, m);
    const int value = solved.ok() && solved->proved_optimal
                          ? solved->satisfied_queries
                          : -1;
    optimum_[key] = value;
    return value;
  }

  // Checks one OK answer; records uncached answers for the hit pass.
  void CheckOk(const Outcome& r) {
    const DeckEntry& entry = Entry(r);
    ++report_->checked;
    if (r.solver < 0) Fail(r, "response names an unknown solver");
    if (r.selected_width != entry.tuple.size()) {
      Fail(r, "selection width differs from the tuple's");
      return;
    }
    const DynamicBitset selected = Selection(r);
    if (!selected.IsSubsetOf(entry.tuple)) {
      Fail(r, "selection is not a subset of the tuple");
    }
    if (static_cast<int>(selected.Count()) > entry.m) {
      Fail(r, "selection has more than m attributes");
    }
    if (workload_.multitenant && (r.epoch < 1 || r.epoch < r.min_epoch)) {
      Fail(r, "epoch " + std::to_string(r.epoch) +
                  " older than the one published before submit (" +
                  std::to_string(r.min_epoch) + ")");
    }
    const QueryLog* log = LogFor(entry, r.epoch);
    if (log == nullptr) {
      Fail(r, "epoch " + std::to_string(r.epoch) + " was never published");
      return;
    }
    const int recount = soc::CountSatisfiedQueries(*log, selected);
    if (recount != r.satisfied) {
      Fail(r, "satisfied_queries " + std::to_string(r.satisfied) +
                  " but a recount gives " + std::to_string(recount));
    }
    const bool claims_optimum =
        r.proved_optimal || (IsExactSolver(entry.solver) && !r.degraded);
    if (claims_optimum && workload_.name != "greedy_biglog") {
      ++report_->optimum_checked;
      const int optimum = Optimum(*log, entry.tuple, entry.m);
      if (optimum != r.satisfied) {
        Fail(r, std::string(r.cache_hit ? "cache-hit " : "") + "answer " +
                    std::to_string(r.satisfied) + " to a " + entry.solver +
                    " request (answered by " + SolverName(r.solver) +
                    ", proved_optimal " + (r.proved_optimal ? "true" : "false") +
                    ") but BranchAndBound gives " + std::to_string(optimum));
      }
    }
    if (workload_.multitenant && !r.cache_hit && !r.degraded) {
      const std::string& solver = r.fast_path ? kFastPath : entry.solver;
      uncached_[Key(entry, r, solver)].insert(Answer(r.selected, r.satisfied,
                                                     r.solver));
    }
  }

  void CheckHit(const Outcome& r) {
    const DeckEntry& entry = Entry(r);
    ++report_->hits_checked;
    if (SolverName(r.solver) != entry.solver &&
        SolverName(r.solver) != kFastPath) {
      ++report_->cross_solver_hits;
    }
    const Answer answer(r.selected, r.satisfied, r.solver);
    for (const std::string& solver : {entry.solver, kFastPath}) {
      const auto it = uncached_.find(Key(entry, r, solver));
      if (it != uncached_.end() && it->second.count(answer) != 0) return;
    }
    Fail(r, "cache hit for a " + entry.solver + " request answered by " +
                SolverName(r.solver) + " (" + std::to_string(r.satisfied) +
                " satisfied), an answer no uncached " + entry.solver +
                " request on this key and epoch got");
  }

 private:
  static inline const std::string kFastPath = "none";

  const DeckEntry& Entry(const Outcome& r) const {
    return workload_.deck[static_cast<std::size_t>(r.deck_index)];
  }

  static AnswerKey Key(const DeckEntry& entry, const Outcome& r,
                       const std::string& solver) {
    std::uint64_t tuple = 0;
    for (std::size_t b = 0; b < std::min<std::size_t>(entry.tuple.size(), 64);
         ++b) {
      if (entry.tuple.Test(b)) tuple |= std::uint64_t{1} << b;
    }
    return AnswerKey{entry.tenant, tuple, entry.m, r.epoch, solver};
  }

  const Workload& workload_;
  const Publisher* const publisher_;
  CheckReport* const report_;
  std::map<std::tuple<const QueryLog*, std::string, int>, int> optimum_;
  std::map<AnswerKey, std::set<Answer>> uncached_;
  std::set<const Outcome*> failed_;
};

}  // namespace

CheckReport CheckOutcomes(const Workload& workload,
                          const OutcomeStore& outcomes,
                          const Publisher* publisher) {
  CheckReport report;
  Checker checker(workload, publisher, &report);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& outcome = outcomes[i];
    ++report.sent;
    if (outcome.wire_error == Outcome::WireError::kRequest) {
      checker.Fail(outcome, "request line does not parse");
    } else if (outcome.wire_error == Outcome::WireError::kResponse) {
      checker.Fail(outcome, "response line does not parse");
    }
    if (outcome.ok()) {
      ++report.ok;
    } else if (outcome.shed()) {
      ++report.shed;
      if (!outcome.shed_reason) {
        checker.Fail(outcome, "overloaded response without a shed_reason");
      }
    } else {
      ++report.errors;
    }
  }
  // Uncached answers first, so every hit can be matched to one.
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].ok() && !outcomes[i].cache_hit) {
      checker.CheckOk(outcomes[i]);
    }
  }
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].ok() && outcomes[i].cache_hit) {
      checker.CheckOk(outcomes[i]);
      checker.CheckHit(outcomes[i]);
    }
  }
  if (report.sent != report.ok + report.shed + report.errors) {
    ++report.check_failures;
    report.failures.push_back("ledger: sent != OK + shed + errors");
  }
  return report;
}

}  // namespace perfbench
