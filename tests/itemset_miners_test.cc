// Cross-checked tests of the four itemset miners: Apriori and Eclat must
// agree exactly; the maximal DFS miner must equal the maximal subsets of
// the frequent collection; the random walk must find the same maximal sets
// on small inputs. The DFS miner's output order is pinned too: it sets the
// MFI solver's tie-break, so the served answers depend on it.

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/solve_context.h"
#include "datagen/car_dataset.h"
#include "datagen/workload.h"
#include "itemsets/apriori.h"
#include "itemsets/eclat.h"
#include "itemsets/maximal_dfs.h"
#include "itemsets/random_walk.h"
#include "itemsets/transaction_db.h"
#include "paper_example.h"

namespace soc::itemsets {
namespace {

using ItemsetMap = std::map<DynamicBitset, int>;

ItemsetMap ToMap(const std::vector<FrequentItemset>& itemsets) {
  ItemsetMap map;
  for (const FrequentItemset& f : itemsets) {
    const bool inserted = map.emplace(f.items, f.support).second;
    EXPECT_TRUE(inserted) << "duplicate itemset reported";
  }
  return map;
}

TransactionDatabase MakeClassicDb() {
  // The canonical Agrawal-Srikant style example over items {0..4}:
  std::vector<DynamicBitset> rows = {
      DynamicBitset::FromString("11100"),  // {0,1,2}
      DynamicBitset::FromString("01110"),  // {1,2,3}
      DynamicBitset::FromString("11010"),  // {0,1,3}
      DynamicBitset::FromString("01100"),  // {1,2}
      DynamicBitset::FromString("10100"),  // {0,2}
      DynamicBitset::FromString("01101"),  // {1,2,4}
  };
  return TransactionDatabase(std::move(rows));
}

// Reference miner: enumerate all 2^n itemsets (n small).
ItemsetMap BruteForceFrequent(const TransactionDatabase& db, int min_support) {
  ItemsetMap map;
  const int n = db.num_items();
  for (int mask = 1; mask < (1 << n); ++mask) {
    DynamicBitset itemset(n);
    for (int i = 0; i < n; ++i) {
      if ((mask >> i) & 1) itemset.Set(i);
    }
    const int support = db.Support(itemset);
    if (support >= min_support) map.emplace(std::move(itemset), support);
  }
  return map;
}

// The maximal members of the complete frequent collection `frequent`.
ItemsetMap MaximalFilter(const ItemsetMap& frequent,
                         const TransactionDatabase& db, int min_support) {
  ItemsetMap maximal;
  for (const auto& [items, support] : frequent) {
    bool is_maximal = true;
    for (const auto& [other, other_support] : frequent) {
      if (items.IsProperSubsetOf(other)) {
        is_maximal = false;
        break;
      }
    }
    if (is_maximal) maximal.emplace(items, support);
  }
  if (maximal.empty() && db.num_transactions() >= min_support) {
    maximal.emplace(DynamicBitset(db.num_items()), db.num_transactions());
  }
  return maximal;
}

ItemsetMap BruteForceMaximal(const TransactionDatabase& db, int min_support) {
  return MaximalFilter(BruteForceFrequent(db, min_support), db, min_support);
}

TEST(AprioriTest, ClassicExample) {
  TransactionDatabase db = MakeClassicDb();
  auto result = MineFrequentItemsetsApriori(db, 3);
  ASSERT_TRUE(result.ok());
  ItemsetMap map = ToMap(*result);
  EXPECT_EQ(map, BruteForceFrequent(db, 3));
  // Spot values: {1} support 5, {1,2} support 4, {0,1} support 2 (absent).
  EXPECT_EQ(map.at(DynamicBitset::FromString("01000")), 5);
  EXPECT_EQ(map.at(DynamicBitset::FromString("01100")), 4);
  EXPECT_FALSE(map.contains(DynamicBitset::FromString("11000")));
}

TEST(AprioriTest, ThresholdOneFindsEverything) {
  TransactionDatabase db = MakeClassicDb();
  auto result = MineFrequentItemsetsApriori(db, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ToMap(*result), BruteForceFrequent(db, 1));
}

TEST(AprioriTest, HighThresholdYieldsNothing) {
  TransactionDatabase db = MakeClassicDb();
  auto result = MineFrequentItemsetsApriori(db, 7);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(AprioriTest, MaxLevelStopsEarly) {
  TransactionDatabase db = MakeClassicDb();
  AprioriOptions options;
  options.max_level = 1;
  auto result = MineFrequentItemsetsApriori(db, 1, options);
  ASSERT_TRUE(result.ok());
  for (const FrequentItemset& f : *result) {
    EXPECT_EQ(f.items.Count(), 1u);
  }
}

TEST(AprioriTest, ExplosionGuardTrips) {
  // Dense database: every transaction contains every item -> 2^20 - 1
  // frequent itemsets.
  std::vector<DynamicBitset> rows;
  DynamicBitset full(20);
  full.SetAll();
  for (int i = 0; i < 3; ++i) rows.push_back(full);
  TransactionDatabase db(std::move(rows));
  AprioriOptions options;
  options.max_itemsets = 1000;
  auto result = MineFrequentItemsetsApriori(db, 1, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(EclatTest, MatchesAprioriOnClassicExample) {
  TransactionDatabase db = MakeClassicDb();
  for (int min_support = 1; min_support <= 6; ++min_support) {
    auto apriori = MineFrequentItemsetsApriori(db, min_support);
    auto eclat = MineFrequentItemsetsEclat(db, min_support);
    ASSERT_TRUE(apriori.ok());
    ASSERT_TRUE(eclat.ok());
    EXPECT_EQ(ToMap(*apriori), ToMap(*eclat)) << "r=" << min_support;
  }
}

TEST(EclatTest, ExplosionGuardTrips) {
  std::vector<DynamicBitset> rows;
  DynamicBitset full(25);
  full.SetAll();
  rows.push_back(full);
  TransactionDatabase db(std::move(rows));
  EclatOptions options;
  options.max_itemsets = 500;
  auto result = MineFrequentItemsetsEclat(db, 1, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(MaximalDfsTest, ClassicExample) {
  TransactionDatabase db = MakeClassicDb();
  auto result = MineMaximalItemsetsDfs(db, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ToMap(*result), BruteForceMaximal(db, 3));
}

TEST(MaximalDfsTest, AllThresholdsMatchBruteForce) {
  TransactionDatabase db = MakeClassicDb();
  for (int min_support = 1; min_support <= 6; ++min_support) {
    auto result = MineMaximalItemsetsDfs(db, min_support);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(ToMap(*result), BruteForceMaximal(db, min_support))
        << "r=" << min_support;
  }
}

TEST(MaximalDfsTest, DenseComplementedQueryLog) {
  // The actual workload shape of MaxFreqItemSets-SOC-CB-QL: a dense table.
  TransactionDatabase db =
      TransactionDatabase::FromComplementedQueryLog(testdata::PaperQueryLog());
  for (int min_support = 1; min_support <= 5; ++min_support) {
    auto result = MineMaximalItemsetsDfs(db, min_support);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(ToMap(*result), BruteForceMaximal(db, min_support))
        << "r=" << min_support;
  }
}

TEST(MaximalDfsTest, EmptyItemsetWhenNoItemFrequent) {
  std::vector<DynamicBitset> rows = {DynamicBitset::FromString("10"),
                                     DynamicBitset::FromString("01")};
  TransactionDatabase db(std::move(rows));
  auto result = MineMaximalItemsetsDfs(db, 2);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_TRUE((*result)[0].items.None());
  EXPECT_EQ((*result)[0].support, 2);
}

TEST(MaximalDfsTest, NothingWhenThresholdExceedsTransactions) {
  std::vector<DynamicBitset> rows = {DynamicBitset::FromString("11")};
  TransactionDatabase db(std::move(rows));
  auto result = MineMaximalItemsetsDfs(db, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(MaximalDfsTest, IsMaximalFrequentHelper) {
  TransactionDatabase db = MakeClassicDb();
  // {1,2} has support 4 and extension {1,2,x} all below 3 except... check:
  // {0,1,2}: t0 only -> 1; {1,2,3}: t1 -> 1; {1,2,4}: t5 -> 1. Maximal at 3.
  EXPECT_TRUE(IsMaximalFrequent(db, DynamicBitset::FromString("01100"), 3));
  EXPECT_FALSE(IsMaximalFrequent(db, DynamicBitset::FromString("01000"), 3));
  EXPECT_FALSE(IsMaximalFrequent(db, DynamicBitset::FromString("10010"), 3));
}

TEST(RandomWalkTest, SingleWalkReachesMaximalItemset) {
  TransactionDatabase db = MakeClassicDb();
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    FrequentItemset found = TwoPhaseRandomWalk(db, 3, rng);
    EXPECT_GE(found.support, 3);
    EXPECT_TRUE(IsMaximalFrequent(db, found.items, 3));
  }
}

TEST(RandomWalkTest, FindsAllMaximalSetsOnSmallInput) {
  TransactionDatabase db = MakeClassicDb();
  for (int min_support = 1; min_support <= 5; ++min_support) {
    RandomWalkOptions options;
    options.seed = 1000 + min_support;
    auto result = MineMaximalItemsetsRandomWalk(db, min_support, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(ToMap(*result), BruteForceMaximal(db, min_support))
        << "r=" << min_support;
  }
}

TEST(RandomWalkTest, DenseComplementedLogMatchesDfs) {
  TransactionDatabase db =
      TransactionDatabase::FromComplementedQueryLog(testdata::PaperQueryLog());
  for (int min_support = 1; min_support <= 4; ++min_support) {
    auto walk = MineMaximalItemsetsRandomWalk(db, min_support);
    auto dfs = MineMaximalItemsetsDfs(db, min_support);
    ASSERT_TRUE(walk.ok());
    ASSERT_TRUE(dfs.ok());
    EXPECT_EQ(ToMap(*walk), ToMap(*dfs)) << "r=" << min_support;
  }
}

TEST(RandomWalkTest, GoodTuringStopsEarly) {
  TransactionDatabase db = MakeClassicDb();
  RandomWalkOptions options;
  options.max_iterations = 5000;
  RandomWalkStats stats;
  auto result = MineMaximalItemsetsRandomWalk(db, 3, options, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(stats.stopped_by_rule);
  EXPECT_LT(stats.walks, 5000);
  EXPECT_EQ(stats.distinct_maximal, static_cast<int>(result->size()));
}

TEST(RandomWalkTest, EmptyResultWhenThresholdTooHigh) {
  std::vector<DynamicBitset> rows = {DynamicBitset::FromString("11")};
  TransactionDatabase db(std::move(rows));
  auto result = MineMaximalItemsetsRandomWalk(db, 5);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(RandomWalkTest, RejectsNonPositiveIterations) {
  TransactionDatabase db = MakeClassicDb();
  RandomWalkOptions options;
  options.max_iterations = 0;
  auto result = MineMaximalItemsetsRandomWalk(db, 1, options);
  EXPECT_FALSE(result.ok());
}

// Property sweep: on random databases, all miners agree.
class MinerAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(MinerAgreementTest, AllMinersAgreeOnRandomDatabases) {
  const int seed = GetParam();
  Rng rng(seed);
  const int n = rng.NextInt(3, 9);
  const int rows = rng.NextInt(2, 14);
  const double density = 0.2 + 0.6 * rng.NextDouble();
  std::vector<DynamicBitset> transactions;
  for (int t = 0; t < rows; ++t) {
    DynamicBitset row(n);
    for (int i = 0; i < n; ++i) {
      if (rng.NextBernoulli(density)) row.Set(i);
    }
    transactions.push_back(std::move(row));
  }
  TransactionDatabase db(std::move(transactions));
  const int min_support = rng.NextInt(1, std::max(1, rows / 2));

  auto apriori = MineFrequentItemsetsApriori(db, min_support);
  auto eclat = MineFrequentItemsetsEclat(db, min_support);
  ASSERT_TRUE(apriori.ok());
  ASSERT_TRUE(eclat.ok());
  const ItemsetMap expected_frequent = BruteForceFrequent(db, min_support);
  EXPECT_EQ(ToMap(*apriori), expected_frequent);
  EXPECT_EQ(ToMap(*eclat), expected_frequent);

  auto dfs = MineMaximalItemsetsDfs(db, min_support);
  ASSERT_TRUE(dfs.ok());
  const ItemsetMap expected_maximal = BruteForceMaximal(db, min_support);
  EXPECT_EQ(ToMap(*dfs), expected_maximal);

  // With the Good-Turing stop the walk is complete only with high
  // probability; every reported itemset must still be genuinely maximal.
  RandomWalkOptions walk_options;
  walk_options.seed = seed * 31 + 7;
  auto walk = MineMaximalItemsetsRandomWalk(db, min_support, walk_options);
  ASSERT_TRUE(walk.ok());
  for (const FrequentItemset& f : *walk) {
    EXPECT_TRUE(IsMaximalFrequent(db, f.items, min_support));
    EXPECT_EQ(f.support, db.Support(f.items));
    EXPECT_TRUE(expected_maximal.contains(f.items));
  }

  // With the stop disabled and a generous walk budget it finds everything.
  walk_options.good_turing_stop = false;
  walk_options.max_iterations = 2000;
  auto exhaustive_walk =
      MineMaximalItemsetsRandomWalk(db, min_support, walk_options);
  ASSERT_TRUE(exhaustive_walk.ok());
  EXPECT_EQ(ToMap(*exhaustive_walk), expected_maximal);
}

INSTANTIATE_TEST_SUITE_P(RandomDatabases, MinerAgreementTest,
                         ::testing::Range(0, 25));

// FNV-1a over the ordered (itemset, support) sequence: each itemset's set
// bits, a separator, its support.
std::uint64_t OrderedDigest(const std::vector<FrequentItemset>& itemsets) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto mix = [&h](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (value >> (8 * byte)) & 0xFF;
      h *= 0x100000001B3ull;
    }
  };
  for (const FrequentItemset& f : itemsets) {
    f.items.ForEachSetBit([&mix](int item) { mix(item); });
    mix(~std::uint64_t{0});
    mix(static_cast<std::uint64_t>(f.support));
  }
  return h;
}

// ~Q of the multitenant_zipf MFI tenants' shape: 15 attributes, 224, 264
// or 304 synthetic queries.
TransactionDatabase TenantShapedDb(int num_queries, std::uint64_t seed) {
  datagen::SyntheticWorkloadOptions options;
  options.num_queries = num_queries;
  options.seed = seed;
  return TransactionDatabase::FromComplementedQueryLog(
      datagen::MakeSyntheticWorkload(AttributeSchema::Anonymous(15), options));
}

// ~Q of the real-like car log (M = 32, 185 queries): dense and deep.
TransactionDatabase CarDb() {
  return TransactionDatabase::FromComplementedQueryLog(
      datagen::MakeRealLikeWorkload(datagen::GenerateCarDataset()));
}

struct PinnedPass {
  int min_support;
  std::size_t count;
  std::uint64_t digest;
};

void ExpectPinnedPasses(const TransactionDatabase& db,
                        const std::vector<PinnedPass>& passes) {
  for (const PinnedPass& pass : passes) {
    auto result = MineMaximalItemsetsDfs(db, pass.min_support);
    ASSERT_TRUE(result.ok()) << "r=" << pass.min_support;
    EXPECT_EQ(result->size(), pass.count) << "r=" << pass.min_support;
    EXPECT_EQ(OrderedDigest(*result), pass.digest)
        << "r=" << pass.min_support;
  }
}

TEST(MaximalDfsOracleTest, TenantShapedLogsKeepTheirOrder) {
  ExpectPinnedPasses(TenantShapedDb(224, 1048),
                     {{1, 14, 2857540834182819933u},
                      {5, 82, 5377299863850813955u},
                      {12, 465, 2965955582190335590u},
                      {20, 1446, 6047227940688630530u},
                      {30, 2795, 17116145213443718858u}});
  ExpectPinnedPasses(TenantShapedDb(264, 1128),
                     {{1, 15, 133968779859488666u},
                      {5, 92, 3059874646080084511u},
                      {12, 634, 2430050347805480130u},
                      {20, 1797, 8769262448892700278u},
                      {30, 3236, 7303683985340985030u}});
  ExpectPinnedPasses(TenantShapedDb(304, 1208),
                     {{1, 15, 16008730302445557780u},
                      {5, 35, 10330810370457988967u},
                      {12, 229, 1425952162223049496u},
                      {20, 848, 937131162904433947u},
                      {30, 2009, 2391474164669776892u}});
}

TEST(MaximalDfsOracleTest, CarLogKeepsItsOrder) {
  ExpectPinnedPasses(CarDb(),
                     {{1, 79, 4985264676946015451u},
                      {160, 1278, 2581615744891205282u},
                      {165, 361, 8295902832243201043u},
                      {170, 80, 2906929996182916235u},
                      {175, 17, 16474082293702975534u}});
}

// A pass stopped by a tick budget keeps the sets found so far: a prefix of
// the complete pass, in the same order.
TEST(MaximalDfsOracleTest, StoppedPassIsAPrefixOfTheCompletePass) {
  const std::vector<std::pair<TransactionDatabase, int>> cases = {
      {TenantShapedDb(264, 1128), 20}, {CarDb(), 160}};
  for (const auto& [db, min_support] : cases) {
    auto complete = MineMaximalItemsetsDfs(db, min_support);
    ASSERT_TRUE(complete.ok());
    for (const std::int64_t budget : {1, 2, 10, 100, 500, 2000}) {
      SolveContext context;
      context.set_tick_budget(budget);
      auto partial = MineMaximalItemsetsDfs(db, min_support, {}, &context);
      ASSERT_TRUE(partial.ok()) << "budget=" << budget;
      ASSERT_LE(partial->size(), complete->size()) << "budget=" << budget;
      EXPECT_TRUE(std::equal(partial->begin(), partial->end(),
                             complete->begin()))
          << "budget=" << budget;
      if (context.stop_requested()) {
        EXPECT_LT(partial->size(), complete->size()) << "budget=" << budget;
      }
    }
  }
}

// Both guards trip at pinned limits: a complete pass at r=20 over the
// 264-query tenant log visits 3180 nodes and finds 1797 maximal sets.
TEST(MaximalDfsGuardTest, NodeAndMaximalBudgetsTripAtPinnedLimits) {
  const TransactionDatabase db = TenantShapedDb(264, 1128);
  MaximalDfsOptions options;
  options.max_nodes = 3180;
  EXPECT_TRUE(MineMaximalItemsetsDfs(db, 20, options).ok());
  options.max_nodes = 3179;
  EXPECT_EQ(MineMaximalItemsetsDfs(db, 20, options).status().code(),
            StatusCode::kResourceExhausted);

  options = {};
  options.max_maximal = 1797;
  EXPECT_TRUE(MineMaximalItemsetsDfs(db, 20, options).ok());
  options.max_maximal = 1796;
  EXPECT_EQ(MineMaximalItemsetsDfs(db, 20, options).status().code(),
            StatusCode::kResourceExhausted);
}

// Itemsets wider than one word: random sparse databases over 65-130 items,
// with a few planted patterns so that maximal sets span both words. The
// reference is the maximal filter of Eclat's frequent sets.
class WideMaximalDfsTest : public ::testing::TestWithParam<int> {};

TEST_P(WideMaximalDfsTest, MatchesMaximalFilterOfEclat) {
  Rng rng(7000 + GetParam());
  const int n = rng.NextInt(65, 130);
  const int rows = rng.NextInt(20, 150);
  const double density = 0.01 + 0.05 * rng.NextDouble();
  std::vector<DynamicBitset> patterns;
  for (int p = rng.NextInt(1, 4); p > 0; --p) {
    DynamicBitset pattern(n);
    for (int k = rng.NextInt(2, 6); k > 0; --k) {
      pattern.Set(rng.NextInt(0, n - 1));
    }
    patterns.push_back(std::move(pattern));
  }
  std::vector<DynamicBitset> transactions;
  for (int t = 0; t < rows; ++t) {
    DynamicBitset row(n);
    for (int i = 0; i < n; ++i) {
      if (rng.NextBernoulli(density)) row.Set(i);
    }
    for (const DynamicBitset& pattern : patterns) {
      if (rng.NextBernoulli(0.3)) row |= pattern;
    }
    transactions.push_back(std::move(row));
  }
  TransactionDatabase db(std::move(transactions));
  const int min_support = rng.NextInt(2, std::max(2, rows / 8));

  auto eclat = MineFrequentItemsetsEclat(db, min_support);
  ASSERT_TRUE(eclat.ok());
  auto dfs = MineMaximalItemsetsDfs(db, min_support);
  ASSERT_TRUE(dfs.ok());
  EXPECT_EQ(ToMap(*dfs), MaximalFilter(ToMap(*eclat), db, min_support));
}

INSTANTIATE_TEST_SUITE_P(WideSparseDatabases, WideMaximalDfsTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace soc::itemsets
