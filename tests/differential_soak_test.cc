// Differential soak: a wide randomized sweep cross-checking every layer of
// the stack against every other on shared instances. Complements the
// per-module suites with interactions those don't cover (collapsed vs
// raw log vs ILP on one instance, variant consistency, analysis
// consistency with the optimum, heuristics and the serve layer against the
// brute-force reference).
//
// Instances come from the check library's seeded generator, the same
// distribution socvis_check soaks nightly — so a failure here is
// reproducible with `socvis_check --trials=1 --seed=<instance seed>`.

#include <gtest/gtest.h>

#include "boolean/evaluator.h"
#include "boolean/log_stats.h"
#include "check/instance.h"
#include "core/attribute_analysis.h"
#include "core/bnb_solver.h"
#include "core/brute_force.h"
#include "core/fallback_solver.h"
#include "core/greedy.h"
#include "core/ilp_solver.h"
#include "core/mfi_solver.h"
#include "core/variants.h"
#include "serve/visibility_service.h"

namespace soc {
namespace {

class SoakTest : public ::testing::TestWithParam<int> {};

TEST_P(SoakTest, AllLayersAgree) {
  const check::Instance instance =
      check::GenerateInstance(static_cast<std::uint64_t>(GetParam()));
  const QueryLog& log = instance.log;
  const DynamicBitset& t = instance.tuple;
  const int m = instance.m;
  SCOPED_TRACE(check::InstanceSummary(instance));

  // Layer 1: the four exact solvers.
  BruteForceSolver brute;
  auto reference = brute.Solve(log, t, m);
  ASSERT_TRUE(reference.ok());
  const int optimum = reference->satisfied_queries;

  BnbSocSolver bnb;
  auto bnb_solution = bnb.Solve(log, t, m);
  ASSERT_TRUE(bnb_solution.ok());
  EXPECT_EQ(bnb_solution->satisfied_queries, optimum);

  IlpSocSolver ilp;
  auto ilp_solution = ilp.Solve(log, t, m);
  ASSERT_TRUE(ilp_solution.ok());
  EXPECT_EQ(ilp_solution->satisfied_queries, optimum);

  MfiSocSolver mfi;
  auto mfi_solution = mfi.Solve(log, t, m);
  ASSERT_TRUE(mfi_solution.ok());
  EXPECT_EQ(mfi_solution->satisfied_queries, optimum);

  // Layer 2: the duplicate-collapsed log through the same solver.
  auto collapsed_solution = bnb.SolveCollapsed(CollapseDuplicateQueries(log),
                                               t, m);
  ASSERT_TRUE(collapsed_solution.ok());
  EXPECT_EQ(collapsed_solution->satisfied_queries, optimum);
  EXPECT_EQ(collapsed_solution->selected, bnb_solution->selected);

  // Layer 3: the domination adapter run with the log's queries as a
  // database must agree (the two objectives coincide by construction).
  BooleanTable as_database(log.schema());
  for (const DynamicBitset& q : log.queries()) as_database.AddRow(q);
  auto dominated = SolveSocCbD(brute, as_database, t, m);
  ASSERT_TRUE(dominated.ok());
  EXPECT_EQ(dominated->satisfied_queries, optimum);

  // Layer 4: attribute analysis must bracket the optimum.
  if (m >= 1 && t.Any()) {
    auto values = AnalyzeAttributeValues(bnb, log, t, m);
    ASSERT_TRUE(values.ok());
    int best_forced = 0;
    for (const AttributeValue& value : *values) {
      EXPECT_LE(value.forced_in, optimum);
      EXPECT_LE(value.forced_out, optimum);
      best_forced = std::max({best_forced, value.forced_in,
                              value.forced_out});
    }
    if (!values->empty()) {
      EXPECT_EQ(best_forced, optimum);
    }
  }

  // Layer 5: per-attribute variant is consistent with a manual sweep.
  if (t.Any()) {
    auto per_attr = SolvePerAttribute(bnb, log, t);
    ASSERT_TRUE(per_attr.ok());
    for (int budget = 1; budget <= static_cast<int>(t.Count()); ++budget) {
      auto at_budget = brute.Solve(log, t, budget);
      ASSERT_TRUE(at_budget.ok());
      EXPECT_GE(per_attr->ratio + 1e-9,
                static_cast<double>(at_budget->satisfied_queries) / budget);
    }
  }

  // Layer 6: the Fallback portfolio's exact tier completes unhindered on
  // instances this size, so its answer must be the optimum.
  FallbackSolver fallback;
  auto fallback_solution = fallback.Solve(log, t, m);
  ASSERT_TRUE(fallback_solution.ok());
  EXPECT_EQ(fallback_solution->satisfied_queries, optimum);

  // Layer 7: every greedy heuristic stays within [0, optimum] and reports
  // an honest objective.
  for (const GreedyKind kind : {GreedyKind::kConsumeAttr,
                                GreedyKind::kConsumeAttrCumul,
                                GreedyKind::kConsumeQueries}) {
    const GreedySolver greedy(kind);
    auto heuristic = greedy.Solve(log, t, m);
    ASSERT_TRUE(heuristic.ok()) << greedy.name();
    EXPECT_LE(heuristic->satisfied_queries, optimum) << greedy.name();
    EXPECT_EQ(heuristic->satisfied_queries,
              CountSatisfiedQueries(log, heuristic->selected))
        << greedy.name();
    EXPECT_FALSE(heuristic->proved_optimal) << greedy.name();
  }

  // Layer 8: the serve layer answers with the same optimum through its
  // whole pipeline (admission, preprocessing cache, worker pool).
  {
    serve::VisibilityServiceOptions options;
    options.num_workers = 2;
    serve::VisibilityService service(log, options);
    serve::SolveRequest request;
    request.id = "soak";
    request.tuple = t;
    request.m = m;
    request.solver = "BruteForce";
    auto future = service.Submit(request);
    service.Drain();
    const serve::SolveResponse response = future.get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.solution.satisfied_queries, optimum);
    EXPECT_EQ(response.solution.satisfied_queries,
              CountSatisfiedQueries(log, response.solution.selected));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SoakTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace soc
