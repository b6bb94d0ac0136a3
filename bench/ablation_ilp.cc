// Ablation of the ILP solver's beyond-paper improvements:
//
//  * presolve: omit variables fixed at zero, unsatisfiable queries and
//    queries longer than m, and give each distinct query one y weighted
//    by its multiplicity (objective-preserving) vs the paper's literal
//    Sec IV.B model;
//  * greedy incumbent seeding for branch-and-bound.
//
// Presolve moves the ILP scaling wall far beyond the paper's ~1000
// queries, because the model only grows with the *satisfiable* part of
// the log.
//
// Flags: --cars=N (default 2), --ilp-limit=SECONDS (default 15).

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "bench/figure_runner.h"
#include "core/ilp_solver.h"

int main(int argc, char** argv) {
  using namespace soc;
  using namespace soc::bench;
  Flags flags(argc, argv);
  const int num_cars = static_cast<int>(flags.GetInt("cars", 2));
  const double ilp_limit =
      static_cast<double>(flags.GetInt("ilp-limit", 15));

  const BooleanTable dataset = MakePaperDataset(5000);
  std::vector<DynamicBitset> tuples;
  for (int row : datagen::PickAdvertisedTuples(dataset, num_cars, 7)) {
    tuples.push_back(dataset.row(row));
  }

  auto entry = [&](std::string name, bool presolve, bool seed) {
    IlpSocOptions options;
    options.presolve = presolve;
    options.seed_with_greedy = seed;
    options.mip.time_limit_seconds = ilp_limit;
    auto solver = std::make_shared<IlpSocSolver>(options);
    return SolverEntry{std::move(name),
                       [solver](const QueryLog& l, const DynamicBitset& t,
                                int m) { return solver->Solve(l, t, m); },
                       /*requires_proof=*/true};
  };

  std::vector<SolverEntry> solvers;
  solvers.push_back(entry("paper-model", false, false));
  solvers.push_back(entry("paper-model+seed", false, true));
  solvers.push_back(entry("presolve", true, false));
  solvers.push_back(entry("presolve+seed", true, true));

  const std::vector<int> sizes = {100, 200, 500, 1000, 2000};
  std::vector<std::vector<SweepCell>> matrix(
      solvers.size(), std::vector<SweepCell>(sizes.size()));
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    datagen::SyntheticWorkloadOptions workload;
    workload.num_queries = sizes[i];
    workload.seed = 42 + i;
    const QueryLog log = MakeSyntheticWorkload(dataset.schema(), workload);
    const SweepMatrix column = RunBudgetSweep(log, tuples, solvers, {5});
    for (std::size_t s = 0; s < solvers.size(); ++s) {
      matrix[s][i] = column[s][0];
    }
  }

  std::printf(
      "# ILP ablation: presolve and greedy seeding — synthetic workloads, "
      "m=5, avg over %d cars\n",
      num_cars);
  PrintTimeTable("|Q|", sizes, solvers, matrix);
  return 0;
}
