// Collapsed-log solving: BruteForceSolver, BnbSocSolver and GreedySolver
// solve a duplicate-collapsed log (each distinct query with its
// multiplicity) through the engine they run on the raw log. The objective
// is a count over the multiset of queries, so both forms must give the
// same selection, objective, optimality flag and search counters, and the
// collapsed entries keep the SolveContext degrade contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "boolean/evaluator.h"
#include "boolean/log_stats.h"
#include "common/random.h"
#include "core/bnb_solver.h"
#include "core/brute_force.h"
#include "core/greedy.h"
#include "datagen/car_dataset.h"
#include "datagen/workload.h"
#include "paper_example.h"

namespace soc {
namespace {

constexpr GreedyKind kGreedyKinds[] = {GreedyKind::kConsumeAttr,
                                       GreedyKind::kConsumeAttrCumul,
                                       GreedyKind::kConsumeQueries};

void ExpectCollapsedEqualsRaw(const CollapsibleSolver& solver,
                              const QueryLog& log,
                              const CollapsedLog& collapsed,
                              const DynamicBitset& tuple, int m) {
  SCOPED_TRACE(solver.name() + " m=" + std::to_string(m));
  auto raw = solver.Solve(log, tuple, m);
  auto folded = solver.SolveCollapsed(collapsed, tuple, m);
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(folded->selected, raw->selected);
  EXPECT_EQ(folded->satisfied_queries, raw->satisfied_queries);
  EXPECT_EQ(folded->proved_optimal, raw->proved_optimal);
  // nodes / combinations / enumerated / pool_size.
  EXPECT_EQ(folded->metrics, raw->metrics);
}

void ExpectAllSolversAgree(const QueryLog& log, const DynamicBitset& tuple,
                           int m) {
  const CollapsedLog collapsed = CollapseDuplicateQueries(log);
  ExpectCollapsedEqualsRaw(BruteForceSolver(), log, collapsed, tuple, m);
  ExpectCollapsedEqualsRaw(BnbSocSolver(), log, collapsed, tuple, m);
  for (GreedyKind kind : kGreedyKinds) {
    ExpectCollapsedEqualsRaw(GreedySolver(kind), log, collapsed, tuple, m);
  }
}

DynamicBitset RandomTuple(Rng& rng, int width, double density) {
  DynamicBitset t(width);
  for (int a = 0; a < width; ++a) {
    if (rng.NextBernoulli(density)) t.Set(a);
  }
  return t;
}

// The paper's car market with a real-like log: hot templates repeat, so
// its 185 queries collapse to 89.
struct CarInstance {
  QueryLog log;
  DynamicBitset tuple;
};

CarInstance MakeCarInstance() {
  datagen::CarDatasetOptions car_options;
  car_options.num_cars = 800;
  const BooleanTable market = datagen::GenerateCarDataset(car_options);
  CarInstance instance{datagen::MakeRealLikeWorkload(market), {}};
  // A 19-attribute car whose exact search at m=5 enumerates 3003
  // combinations over 15 candidate attributes.
  instance.tuple = market.row(datagen::PickAdvertisedTuples(market, 1, 5)[0]);
  return instance;
}

TEST(CollapsedLogTest, SyntheticLogsSolveAsRaw) {
  Rng rng(2718);
  const AttributeSchema schema = AttributeSchema::Anonymous(12);
  for (int trial = 0; trial < 15; ++trial) {
    datagen::SyntheticWorkloadOptions wl;
    wl.num_queries = 150;
    wl.seed = trial;
    const QueryLog log = datagen::MakeSyntheticWorkload(schema, wl);
    const DynamicBitset t = RandomTuple(rng, 12, 0.65);
    const int m = rng.NextInt(0, 6);
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectAllSolversAgree(log, t, m);
  }
  for (int trial = 0; trial < 10; ++trial) {
    datagen::SyntheticWorkloadOptions wl;
    wl.num_queries = 300;
    wl.seed = 50 + trial;
    const QueryLog log =
        datagen::MakeSyntheticWorkload(AttributeSchema::Anonymous(10), wl);
    ASSERT_LT(CollapseDuplicateQueries(log).queries.size(), log.size());
    const DynamicBitset t = RandomTuple(rng, 10, 0.7);
    SCOPED_TRACE("trial " + std::to_string(50 + trial));
    ExpectAllSolversAgree(log, t, rng.NextInt(1, 5));
  }
}

TEST(CollapsedLogTest, PaperLogSolvesAsRaw) {
  // The paper log has no duplicates (weights all 1); the optimum at m=3
  // is 3.
  const QueryLog log = testdata::PaperQueryLog();
  EXPECT_EQ(CollapseDuplicateQueries(log).queries.size(), 5);
  for (int m = 0; m <= 6; ++m) {
    ExpectAllSolversAgree(log, testdata::PaperNewTuple(), m);
  }
  auto solution = BnbSocSolver().SolveCollapsed(
      CollapseDuplicateQueries(log), testdata::PaperNewTuple(), 3);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->satisfied_queries, 3);
}

TEST(CollapsedLogTest, CarLogSolvesAsRaw) {
  const CarInstance car = MakeCarInstance();
  ASSERT_LT(CollapseDuplicateQueries(car.log).queries.size(), car.log.size());
  for (int m : {3, 5, 7, 9}) ExpectAllSolversAgree(car.log, car.tuple, m);
}

TEST(CollapsedLogTest, MultiplicityDecidesTheOptimum) {
  // Two distinct queries {2} and {3}; at m=1 the one repeated five times
  // wins.
  QueryLog log(AttributeSchema::Anonymous(4));
  log.AddQueryFromIndices({2});
  for (int i = 0; i < 5; ++i) log.AddQueryFromIndices({3});
  DynamicBitset t(4);
  t.SetAll();
  auto solution = BnbSocSolver().SolveCollapsed(CollapseDuplicateQueries(log),
                                                t, 1);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->satisfied_queries, 5);
  EXPECT_TRUE(solution->selected.Test(3));
}

// A collapsed solve's partial answer must still be a valid answer for the
// raw log: width, ⊆ t, exactly m_eff attributes, and an objective that
// equals the raw recount.
void ExpectValidOnRawLog(const SocSolution& solution, const QueryLog& log,
                         const DynamicBitset& tuple, int m) {
  EXPECT_EQ(solution.selected.size(), tuple.size());
  EXPECT_TRUE(solution.selected.IsSubsetOf(tuple));
  EXPECT_EQ(static_cast<int>(solution.selected.Count()),
            std::min<int>(m, static_cast<int>(tuple.Count())));
  EXPECT_EQ(solution.satisfied_queries,
            CountSatisfiedQueries(log, solution.selected));
  if (IsDegraded(solution)) {
    EXPECT_FALSE(solution.proved_optimal);
  }
}

void ExpectCollapsedHonoursContext(const CollapsibleSolver& solver,
                                   const CarInstance& car,
                                   const CollapsedLog& collapsed, int m) {
  for (StopReason reason : {StopReason::kDeadline, StopReason::kCancelled,
                            StopReason::kTickBudget}) {
    for (std::int64_t at_tick : {std::int64_t{1}, std::int64_t{5}}) {
      SCOPED_TRACE(solver.name() + " " + StopReasonToString(reason) + "@" +
                   std::to_string(at_tick));
      SolveContext context;
      context.InjectFault(reason, at_tick);
      auto solution = solver.SolveCollapsed(collapsed, car.tuple, m, &context);
      ASSERT_TRUE(solution.ok());
      ExpectValidOnRawLog(*solution, car.log, car.tuple, m);
      // Every solver checkpoints at least once, so the first tick always
      // stops it; by tick 5 a short solve may have finished cleanly.
      if (at_tick == 1) {
        EXPECT_TRUE(IsDegraded(*solution));
      }
      if (IsDegraded(*solution)) {
        EXPECT_EQ(SolutionStopReason(*solution), reason);
      }
    }
  }
}

TEST(CollapsedLogTest, CollapsedEntriesHonourSolveContext) {
  const CarInstance car = MakeCarInstance();
  const CollapsedLog collapsed = CollapseDuplicateQueries(car.log);
  const int m = 5;
  ExpectCollapsedHonoursContext(BruteForceSolver(), car, collapsed, m);
  ExpectCollapsedHonoursContext(BnbSocSolver(), car, collapsed, m);
  for (GreedyKind kind : kGreedyKinds) {
    ExpectCollapsedHonoursContext(GreedySolver(kind), car, collapsed, m);
  }
}

TEST(CollapsedLogTest, StructuralGuardsDegradeWithResourceLimit) {
  const CarInstance car = MakeCarInstance();
  const CollapsedLog collapsed = CollapseDuplicateQueries(car.log);
  const int m = 5;

  BruteForceOptions brute_options;
  brute_options.max_combinations = 1;
  auto brute = BruteForceSolver(brute_options)
                   .SolveCollapsed(collapsed, car.tuple, m);
  ASSERT_TRUE(brute.ok());
  EXPECT_EQ(SolutionStopReason(*brute), StopReason::kResourceLimit);
  ExpectValidOnRawLog(*brute, car.log, car.tuple, m);

  BnbSocOptions bnb_options;
  bnb_options.max_nodes = 1;
  auto bnb = BnbSocSolver(bnb_options).SolveCollapsed(collapsed, car.tuple, m);
  ASSERT_TRUE(bnb.ok());
  EXPECT_EQ(SolutionStopReason(*bnb), StopReason::kResourceLimit);
  ExpectValidOnRawLog(*bnb, car.log, car.tuple, m);
}

TEST(CollapsedLogTest, GreedyBoundedByExact) {
  Rng rng(161803);
  const AttributeSchema schema = AttributeSchema::Anonymous(10);
  for (int trial = 0; trial < 10; ++trial) {
    datagen::SyntheticWorkloadOptions wl;
    wl.num_queries = 120;
    wl.seed = 50 + trial;
    const CollapsedLog collapsed =
        CollapseDuplicateQueries(datagen::MakeSyntheticWorkload(schema, wl));
    const DynamicBitset t = RandomTuple(rng, 10, 0.7);
    const int m = rng.NextInt(1, 5);
    auto exact = BruteForceSolver().SolveCollapsed(collapsed, t, m);
    ASSERT_TRUE(exact.ok());
    EXPECT_TRUE(exact->proved_optimal);
    for (GreedyKind kind : kGreedyKinds) {
      auto greedy = GreedySolver(kind).SolveCollapsed(collapsed, t, m);
      ASSERT_TRUE(greedy.ok());
      EXPECT_LE(greedy->satisfied_queries, exact->satisfied_queries);
      EXPECT_EQ(greedy->selected.Count(),
                static_cast<std::size_t>(std::min<int>(m, t.Count())));
    }
  }
}

}  // namespace
}  // namespace soc
