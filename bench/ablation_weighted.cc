// Collapsed-log ablation: solve the raw log with branch-and-bound vs
// collapse duplicate queries once and solve the collapsed log (each
// distinct query with its multiplicity) through the same solver.
// Synthetic workloads repeat short queries heavily (32 attributes, 1-5 per
// query), so collapsing shrinks the instance substantially at large |Q|.
// Every tuple's two solves must select the same attributes.
//
// Flags: --cars=N (default 5), --m=N (default 5).

#include <cstdio>

#include "bench/bench_util.h"
#include "boolean/log_stats.h"
#include "common/timer.h"
#include "core/bnb_solver.h"

int main(int argc, char** argv) {
  using namespace soc;
  using namespace soc::bench;
  Flags flags(argc, argv);
  const int num_cars = static_cast<int>(flags.GetInt("cars", 5));
  const int m = static_cast<int>(flags.GetInt("m", 5));

  const BooleanTable dataset = MakePaperDataset(5000);
  std::vector<DynamicBitset> tuples;
  for (int row : datagen::PickAdvertisedTuples(dataset, num_cars, 21)) {
    tuples.push_back(dataset.row(row));
  }

  const std::vector<int> sizes = {500, 2000, 10000, 50000};
  std::vector<std::string> columns;
  for (int s : sizes) columns.push_back(StrFormat("%d", s));
  ResultTable table("time(s) \\ |Q|", columns);
  std::vector<std::string> raw_cells, collapse_cells, collapsed_cells,
      distinct_cells;

  const BnbSocSolver solver;
  for (int size : sizes) {
    datagen::SyntheticWorkloadOptions workload;
    workload.num_queries = size;
    workload.seed = 42;
    const QueryLog log = MakeSyntheticWorkload(dataset.schema(), workload);
    WallTimer collapse_timer;
    const CollapsedLog collapsed = CollapseDuplicateQueries(log);
    collapse_cells.push_back(
        ResultTable::Cell(collapse_timer.ElapsedSeconds()));
    distinct_cells.push_back(StrFormat("%d", collapsed.queries.size()));

    double raw_seconds = 0;
    double collapsed_seconds = 0;
    for (const DynamicBitset& tuple : tuples) {
      WallTimer raw_timer;
      auto raw = solver.Solve(log, tuple, m);
      raw_seconds += raw_timer.ElapsedSeconds();
      SOC_CHECK(raw.ok());

      WallTimer collapsed_timer;
      auto folded = solver.SolveCollapsed(collapsed, tuple, m);
      collapsed_seconds += collapsed_timer.ElapsedSeconds();
      SOC_CHECK(folded.ok());
      SOC_CHECK(folded->selected == raw->selected);
      SOC_CHECK_EQ(folded->satisfied_queries, raw->satisfied_queries);
    }
    raw_cells.push_back(ResultTable::Cell(raw_seconds / num_cars));
    collapsed_cells.push_back(ResultTable::Cell(collapsed_seconds / num_cars));
  }

  std::printf(
      "# Collapsed log: branch-and-bound on the raw log vs on the "
      "duplicate-collapsed log (identical selections; m=%d, solve times "
      "averaged over %d cars; the collapse runs once per log)\n",
      m, num_cars);
  table.AddRow("raw log", raw_cells);
  table.AddRow("collapse (once per log)", collapse_cells);
  table.AddRow("collapsed log", collapsed_cells);
  table.AddRow("distinct queries", distinct_cells);
  table.Print();
  return 0;
}
