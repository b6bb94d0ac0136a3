// Unit tests for the overload-control building blocks: the cost model's
// prior/EWMA blend and backlog accounting, the degradation ladder's
// hysteresis, and the client retry policy (backoff schedule + budget).

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "serve/cost_model.h"
#include "serve/degradation_ladder.h"
#include "serve/retry.h"

namespace soc::serve {
namespace {

CostFeatures Features(int queries = 1000, int attributes = 12,
                      double collapse = 1.0) {
  CostFeatures features;
  features.num_queries = queries;
  features.num_attributes = attributes;
  features.collapse_ratio = collapse;
  return features;
}

// ------------------------------------------------------------ cost model

TEST(CostModelTest, PriorOrdersTheSolverCostLadder) {
  const CostModel model(/*num_workers=*/4);
  const CostFeatures features = Features();
  const double brute = model.PredictSolveMs(features, "BruteForce", 3);
  const double bnb = model.PredictSolveMs(features, "BranchAndBound", 3);
  const double ilp = model.PredictSolveMs(features, "ILP", 3);
  const double mfi = model.PredictSolveMs(features, "MaxFreqItemSets", 3);
  const double greedy = model.PredictSolveMs(features, "Fallback", 3);
  EXPECT_GT(brute, bnb);
  EXPECT_GT(bnb, ilp);
  EXPECT_GT(ilp, mfi);
  EXPECT_GT(mfi, greedy);
  EXPECT_GT(greedy, 0);
}

TEST(CostModelTest, PriorScalesWithCollapsedQueryVolumeAndBudget) {
  const CostModel model(4);
  const CostFeatures small = Features(100);
  const CostFeatures large = Features(10000);
  EXPECT_GT(model.PredictSolveMs(large, "ILP", 3),
            model.PredictSolveMs(small, "ILP", 3));

  // The collapse ratio discounts duplicate queries: a log that collapses
  // to a tenth of its raw size predicts a tenth of the work.
  const CostFeatures collapsed = Features(10000, 12, 0.1);
  EXPECT_NEAR(model.PredictSolveMs(collapsed, "ILP", 3),
              model.PredictSolveMs(small, "ILP", 3) * 10, 1e-9);

  const CostFeatures base = Features();
  EXPECT_GT(model.PredictSolveMs(base, "ILP", 8),
            model.PredictSolveMs(base, "ILP", 1));
}

TEST(CostModelTest, EwmaTakesOverAfterWarmup) {
  CostModelOptions options;
  options.warmup_samples = 4;
  CostModel model(4, options);
  const CostFeatures features = Features();
  const double prior = model.PredictSolveMs(features, "ILP", 2);

  // Feed samples far above the prior; the prediction must move toward
  // them monotonically and match the EWMA once warm.
  double previous = prior;
  for (int i = 0; i < 4; ++i) {
    model.Observe("ILP", 50.0);
    const double predicted = model.PredictSolveMs(features, "ILP", 2);
    EXPECT_GT(predicted, previous);
    previous = predicted;
  }
  EXPECT_NEAR(model.PredictSolveMs(features, "ILP", 2), 50.0, 1e-9);
  // Observations are per-tier: Fallback keeps its (tiny) prior.
  EXPECT_LT(model.PredictSolveMs(features, "Fallback", 2), 1.0);
}

TEST(CostModelTest, BacklogChargesAndSettlesSymmetrically) {
  CostModel model(/*num_workers=*/2);
  EXPECT_EQ(model.BacklogMs(), 0);
  model.Charge(10.0);
  model.Charge(6.0);
  EXPECT_NEAR(model.BacklogMs(), 16.0, 1e-6);
  // The pool spreads the backlog: wait = backlog / workers.
  EXPECT_NEAR(model.PredictedQueueWaitMs(), 8.0, 1e-6);
  EXPECT_NEAR(model.RetryAfterMs(), 4.0, 1e-6);
  model.Settle(10.0);
  model.Settle(6.0);
  EXPECT_NEAR(model.BacklogMs(), 0.0, 1e-6);
  // Floored so a shed on an empty queue still suggests a real pause.
  EXPECT_GE(model.RetryAfterMs(), 1.0);
}

// --------------------------------------------------------------- ladder

TEST(DegradationLadderTest, StaysAtZeroUnderLightLoad) {
  DegradationLadder ladder;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ladder.Observe(0.2), 0);
  }
  EXPECT_EQ(ladder.level(), 0);
}

TEST(DegradationLadderTest, SustainedPressureClimbsOneStepPerCrossing) {
  DegradationLadder ladder;  // Watermarks 0.25 / 0.75, max level 2.
  int observations_to_level1 = 0;
  while (ladder.level() < 1) {
    ladder.Observe(1.0);
    ++observations_to_level1;
    ASSERT_LT(observations_to_level1, 1000);
  }
  // A single full-queue sample seeds the EWMA at 1.0, but each further
  // step requires the re-armed EWMA to climb back over the watermark.
  int observations_to_level2 = 0;
  while (ladder.level() < 2) {
    ladder.Observe(1.0);
    ++observations_to_level2;
    ASSERT_LT(observations_to_level2, 1000);
  }
  EXPECT_GT(observations_to_level2, 1);
  // max_level caps the ladder.
  for (int i = 0; i < 100; ++i) EXPECT_LE(ladder.Observe(1.0), 2);
}

TEST(DegradationLadderTest, HysteresisHoldsTheLevelThroughMidPressure) {
  DegradationLadder ladder;
  while (ladder.level() < 1) ladder.Observe(1.0);
  // Mid-band occupancy (between the watermarks) must not flap the level
  // in either direction.
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(ladder.Observe(0.5), 1);
  }
  // Only sustained calm brings it back down.
  while (ladder.level() > 0) ladder.Observe(0.0);
  EXPECT_EQ(ladder.level(), 0);
}

TEST(DegradationLadderTest, MaxLevelZeroDisablesDegradation) {
  DegradationLadderOptions options;
  options.max_level = 0;
  DegradationLadder ladder(options);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ladder.Observe(1.0), 0);
}

TEST(DegradationLadderTest, ApplyLevelDowngradesExactTiersThenEverything) {
  EXPECT_EQ(DegradationLadder::ApplyLevel(0, "BruteForce"), "BruteForce");
  EXPECT_EQ(DegradationLadder::ApplyLevel(1, "BruteForce"), "Fallback");
  EXPECT_EQ(DegradationLadder::ApplyLevel(1, "BranchAndBound"), "Fallback");
  EXPECT_EQ(DegradationLadder::ApplyLevel(1, "ILP"), "Fallback");
  // Mining and greedy tiers survive level 1.
  EXPECT_EQ(DegradationLadder::ApplyLevel(1, "MaxFreqItemSets"),
            "MaxFreqItemSets");
  EXPECT_EQ(DegradationLadder::ApplyLevel(1, "ConsumeAttrCumul"),
            "ConsumeAttrCumul");
  EXPECT_EQ(DegradationLadder::ApplyLevel(2, "MaxFreqItemSets"), "Fallback");
  EXPECT_EQ(DegradationLadder::ApplyLevel(2, "Fallback"), "Fallback");
}

TEST(DegradationLadderTest, GreedyRequestsRunAsRequestedAtEveryLevel) {
  // Fallback starts with exact BranchAndBound: downgrading a greedy to it
  // would make the request slower.
  for (const char* greedy :
       {"ConsumeAttr", "ConsumeAttrCumul", "ConsumeQueries"}) {
    for (int level = 0; level <= 3; ++level) {
      EXPECT_EQ(DegradationLadder::ApplyLevel(level, greedy), greedy)
          << "level " << level;
    }
  }
  EXPECT_EQ(DegradationLadder::ApplyLevel(2, "BranchAndBound"), "Fallback");
  EXPECT_EQ(DegradationLadder::ApplyLevel(2, "MaxFreqItemSets-dfs"),
            "Fallback");
}

// ---------------------------------------------------------------- retry

TEST(RetryTest, OnlyOverloadedIsRetryable) {
  EXPECT_TRUE(IsRetryableStatus(OverloadedError("queue full")));
  EXPECT_FALSE(IsRetryableStatus(Status::OK()));
  EXPECT_FALSE(IsRetryableStatus(InvalidArgumentError("bad tuple")));
  EXPECT_FALSE(IsRetryableStatus(InternalError("solver fault")));
  EXPECT_FALSE(IsRetryableStatus(DeadlineExceededError("late")));
}

TEST(RetryTest, DelayGrowsExponentiallyWithJitterInHalfToFullBand) {
  RetryOptions options;
  options.initial_backoff_ms = 4;
  options.backoff_multiplier = 2.0;
  options.max_backoff_ms = 1000;
  Rng rng(7);
  for (int attempt = 1; attempt <= 5; ++attempt) {
    const double ceiling = 4.0 * std::pow(2.0, attempt - 1);
    for (int i = 0; i < 50; ++i) {
      const double delay = RetryDelayMs(options, attempt, 0, rng);
      EXPECT_GE(delay, ceiling * 0.5);
      EXPECT_LT(delay, ceiling);
    }
  }
}

TEST(RetryTest, DelayIsCappedAndFlooredByTheServerHint) {
  RetryOptions options;
  options.initial_backoff_ms = 4;
  options.backoff_multiplier = 10.0;
  options.max_backoff_ms = 20;
  Rng rng(7);
  // Attempt 4 would be 4000ms uncapped; the cap bounds the ceiling at 20.
  for (int i = 0; i < 50; ++i) {
    EXPECT_LT(RetryDelayMs(options, 4, 0, rng), 20.0);
  }
  // A server hint above the schedule floors it: never retry before the
  // backlog has a chance to drain.
  for (int i = 0; i < 50; ++i) {
    EXPECT_GE(RetryDelayMs(options, 1, 80.0, rng), 40.0);  // >= hint/2.
    EXPECT_LT(RetryDelayMs(options, 1, 80.0, rng), 80.0);
  }
}

TEST(RetryTest, BudgetSpendsDownAndEarnsPerSubmission) {
  RetryOptions options;
  options.initial_budget = 2;
  options.budget_ratio = 0.5;
  RetryBudget budget(options);
  EXPECT_TRUE(budget.TrySpend());
  EXPECT_TRUE(budget.TrySpend());
  EXPECT_FALSE(budget.TrySpend());  // Empty: deny without going negative.
  EXPECT_NEAR(budget.tokens(), 0.0, 1e-9);

  // Two fresh submissions earn one retry at ratio 0.5.
  budget.OnSubmit();
  EXPECT_FALSE(budget.TrySpend());
  budget.OnSubmit();
  EXPECT_TRUE(budget.TrySpend());
}

TEST(RetryTest, BudgetCapsAtTheBurstAllowance) {
  RetryOptions options;
  options.initial_budget = 3;
  options.budget_ratio = 1.0;
  RetryBudget budget(options);
  // However long the quiet stretch, the bucket never banks more than the
  // burst allowance.
  for (int i = 0; i < 100; ++i) budget.OnSubmit();
  EXPECT_NEAR(budget.tokens(), 3.0, 1e-9);
  int spendable = 0;
  while (budget.TrySpend()) ++spendable;
  EXPECT_EQ(spendable, 3);
}

TEST(RetryTest, ZeroRatioBudgetDeniesOnceInitialAllowanceIsSpent) {
  RetryOptions options;
  options.initial_budget = 1;
  options.budget_ratio = 0;
  RetryBudget budget(options);
  EXPECT_TRUE(budget.TrySpend());
  for (int i = 0; i < 50; ++i) budget.OnSubmit();
  EXPECT_FALSE(budget.TrySpend());
}

}  // namespace
}  // namespace soc::serve
