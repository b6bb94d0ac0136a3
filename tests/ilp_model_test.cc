// Structural tests of the Sec IV.B ILP formulation (with and without the
// presolve improvement) and of the IlpSocSolver options.

#include "core/ilp_solver.h"

#include <unordered_set>

#include <gtest/gtest.h>

#include "core/bnb_solver.h"
#include "core/brute_force.h"
#include "datagen/car_dataset.h"
#include "datagen/workload.h"
#include "paper_example.h"

namespace soc {
namespace {

TEST(IlpModelTest, PresolvedModelShape) {
  const QueryLog log = testdata::PaperQueryLog();
  const DynamicBitset t = testdata::PaperNewTuple();  // 5 attributes set.
  const SocIlpModel built = BuildConjunctiveSocModel(log, t, 3);
  // x variables: only the 5 attributes of t.
  EXPECT_EQ(built.num_x, 5);
  // y variables: only the 4 satisfiable queries (q5 needs Turbo).
  EXPECT_EQ(built.num_y, 4);
  EXPECT_EQ(built.model.num_variables(), 9);
  // Constraints: 1 budget + Σ|q_i| link rows = 1 + 8.
  EXPECT_EQ(built.model.num_constraints(), 9);
  EXPECT_TRUE(built.model.HasIntegralObjective());
}

TEST(IlpModelTest, PaperModelShape) {
  const QueryLog log = testdata::PaperQueryLog();
  const DynamicBitset t = testdata::PaperNewTuple();
  const SocIlpModel built =
      BuildConjunctiveSocModel(log, t, 3, /*presolve=*/false);
  // The literal Sec IV.B model: one x per attribute, one y per query.
  EXPECT_EQ(built.num_x, 6);
  EXPECT_EQ(built.num_y, 5);
  // Attributes outside t are bounded to zero.
  int fixed = 0;
  for (int j = 0; j < built.num_x; ++j) {
    if (built.model.variable(j).upper == 0.0) ++fixed;
  }
  EXPECT_EQ(fixed, 1);  // Turbo.
  // Link rows for all queries: Σ|q_i| = 10.
  EXPECT_EQ(built.model.num_constraints(), 11);
}

// A log with repeats, queries longer than the budget and one query
// outside t (attribute 5).
QueryLog RepeatingLog() {
  QueryLog log(AttributeSchema::Anonymous(6));
  for (const std::vector<int>& q : std::vector<std::vector<int>>{
           {0, 1}, {2}, {0, 1}, {0, 1, 2}, {2}, {0, 5}, {2}, {3, 4},
           {0, 1, 2}, {1, 2, 3, 4}}) {
    log.AddQueryFromIndices(q);
  }
  return log;
}

TEST(IlpModelTest, PresolveCollapsesRepeatsAndDropsOverBudgetQueries) {
  const QueryLog log = RepeatingLog();
  const DynamicBitset t = DynamicBitset::FromString("111110");
  const SocIlpModel built = BuildConjunctiveSocModel(log, t, 2);
  // {0,1} x2 (first at 0), {2} x3 (first at 1), {3,4} x1 (at 7); the
  // queries of 3 and 4 attributes cannot fit m = 2, and {0,5} needs an
  // attribute outside t.
  EXPECT_EQ(built.y_queries, (std::vector<int>{0, 1, 7}));
  ASSERT_EQ(built.num_y, 3);
  EXPECT_EQ(built.model.variable(built.num_x + 0).objective, 2.0);
  EXPECT_EQ(built.model.variable(built.num_x + 1).objective, 3.0);
  EXPECT_EQ(built.model.variable(built.num_x + 2).objective, 1.0);
  // 1 budget row + one link row per attribute of each kept query.
  EXPECT_EQ(built.model.num_constraints(), 1 + 2 + 1 + 2);
  EXPECT_TRUE(built.model.HasIntegralObjective());
}

TEST(IlpModelTest, PresolvedShapeMatchesDistinctWithinBudgetQueries) {
  const QueryLog log = RepeatingLog();
  const DynamicBitset t = DynamicBitset::FromString("111110");
  for (int m_eff = 0; m_eff <= 5; ++m_eff) {
    const SocIlpModel built = BuildConjunctiveSocModel(log, t, m_eff);
    std::unordered_set<DynamicBitset, DynamicBitsetHash> distinct;
    std::vector<int> first_occurrences;
    int raw_count = 0;
    for (int i = 0; i < log.size(); ++i) {
      const DynamicBitset& q = log.query(i);
      if (!q.IsSubsetOf(t) || static_cast<int>(q.Count()) > m_eff) continue;
      ++raw_count;
      if (distinct.insert(q).second) first_occurrences.push_back(i);
    }
    EXPECT_EQ(built.num_y, static_cast<int>(distinct.size())) << m_eff;
    EXPECT_EQ(built.y_queries, first_occurrences) << m_eff;
    double weight_sum = 0;
    for (int j = 0; j < built.num_y; ++j) {
      weight_sum += built.model.variable(built.num_x + j).objective;
    }
    EXPECT_EQ(weight_sum, raw_count) << m_eff;
  }
}

TEST(IlpModelTest, LiteralModelKeepsEveryQueryAtWeightOne) {
  const QueryLog log = RepeatingLog();
  const DynamicBitset t = DynamicBitset::FromString("111110");
  const SocIlpModel built =
      BuildConjunctiveSocModel(log, t, 2, /*presolve=*/false);
  ASSERT_EQ(built.num_y, log.size());
  for (int j = 0; j < built.num_y; ++j) {
    EXPECT_EQ(built.y_queries[j], j);
    EXPECT_EQ(built.model.variable(built.num_x + j).objective, 1.0);
  }
}

// The paper's Fig 6/7 setting: the presolved ILP, the literal Sec IV.B
// ILP and BranchAndBound find the same optimum, seeded or not.
TEST(IlpModelTest, PresolvedLiteralAndBranchAndBoundAgreeOnCarLog) {
  const BooleanTable cars = datagen::GenerateCarDataset();
  const QueryLog log = datagen::MakeRealLikeWorkload(cars);
  const BnbSocSolver reference;
  for (const int row : datagen::PickAdvertisedTuples(cars, 3, /*seed=*/1)) {
    const DynamicBitset& car = cars.row(row);
    for (int m = 0; m <= 7; ++m) {
      auto expected = reference.Solve(log, car, m);
      ASSERT_TRUE(expected.ok());
      for (const bool presolve : {true, false}) {
        for (const bool seed : {true, false}) {
          IlpSocOptions options;
          options.presolve = presolve;
          options.seed_with_greedy = seed;
          auto solution = IlpSocSolver(options).Solve(log, car, m);
          ASSERT_TRUE(solution.ok());
          EXPECT_TRUE(solution->proved_optimal);
          EXPECT_EQ(solution->satisfied_queries, expected->satisfied_queries)
              << "row=" << row << " m=" << m << " presolve=" << presolve
              << " seed=" << seed;
        }
      }
    }
  }
}

TEST(IlpModelTest, BudgetRowBindsSelection) {
  const QueryLog log = testdata::PaperQueryLog();
  const DynamicBitset t = testdata::PaperNewTuple();
  const SocIlpModel built = BuildConjunctiveSocModel(log, t, 2);
  const lp::Constraint& budget = built.model.constraint(0);
  EXPECT_EQ(budget.rhs, 2.0);
  EXPECT_EQ(budget.vars.size(), static_cast<std::size_t>(built.num_x));
}

TEST(IlpModelTest, PresolveAndPaperModelAgreeOnOptimum) {
  const QueryLog log = testdata::PaperQueryLog();
  const DynamicBitset t = testdata::PaperNewTuple();
  for (int m = 0; m <= 6; ++m) {
    IlpSocOptions presolved;
    IlpSocOptions literal;
    literal.presolve = false;
    const IlpSocSolver a{presolved};
    const IlpSocSolver b{literal};
    auto sa = a.Solve(log, t, m);
    auto sb = b.Solve(log, t, m);
    ASSERT_TRUE(sa.ok());
    ASSERT_TRUE(sb.ok());
    EXPECT_EQ(sa->satisfied_queries, sb->satisfied_queries) << "m=" << m;
  }
}

TEST(IlpModelTest, SeedingDoesNotChangeOptimum) {
  const AttributeSchema schema = AttributeSchema::Anonymous(10);
  datagen::SyntheticWorkloadOptions wl;
  wl.num_queries = 40;
  wl.seed = 3;
  const QueryLog log = datagen::MakeSyntheticWorkload(schema, wl);
  DynamicBitset t(10);
  t.SetAll();
  BruteForceSolver reference;
  for (bool seed : {false, true}) {
    IlpSocOptions options;
    options.seed_with_greedy = seed;
    const IlpSocSolver solver(options);
    auto solution = solver.Solve(log, t, 4);
    auto expected = reference.Solve(log, t, 4);
    ASSERT_TRUE(solution.ok());
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(solution->satisfied_queries, expected->satisfied_queries)
        << "seed=" << seed;
  }
}

TEST(IlpModelTest, MetricsExposed) {
  const QueryLog log = testdata::PaperQueryLog();
  const DynamicBitset t = testdata::PaperNewTuple();
  const IlpSocSolver solver;
  auto solution = solver.Solve(log, t, 3);
  ASSERT_TRUE(solution.ok());
  bool has_nodes = false;
  for (const auto& [key, value] : solution->metrics) {
    if (key == "nodes") {
      has_nodes = true;
      EXPECT_GE(value, 1.0);
    }
  }
  EXPECT_TRUE(has_nodes);
}

TEST(IlpModelTest, TimeLimitDegradesToPartialSolution) {
  // A large adversarial instance with an absurd 1-microsecond budget: the
  // solver must stop, degrade, and still hand back a valid (padded)
  // selection instead of an error.
  const AttributeSchema schema = AttributeSchema::Anonymous(30);
  datagen::SyntheticWorkloadOptions wl;
  wl.num_queries = 400;
  const QueryLog log = datagen::MakeSyntheticWorkload(schema, wl);
  DynamicBitset t(30);
  t.SetAll();
  IlpSocOptions options;
  options.presolve = false;
  options.seed_with_greedy = false;
  options.mip.time_limit_seconds = 1e-6;
  const IlpSocSolver solver(options);
  auto solution = solver.Solve(log, t, 5);
  ASSERT_TRUE(solution.ok());
  EXPECT_TRUE(IsDegraded(*solution));
  EXPECT_EQ(SolutionStopReason(*solution), StopReason::kDeadline);
  EXPECT_FALSE(solution->proved_optimal);
  EXPECT_EQ(solution->selected.Count(), 5u);
  EXPECT_TRUE(solution->selected.IsSubsetOf(t));
}

}  // namespace
}  // namespace soc
