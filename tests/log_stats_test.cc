#include "boolean/log_stats.h"

#include "boolean/evaluator.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/workload.h"
#include "paper_example.h"

namespace soc {
namespace {

TEST(LogStatsTest, PaperExampleStats) {
  const QueryLog log = testdata::PaperQueryLog();
  const QueryLogStats stats = ComputeQueryLogStats(log);
  EXPECT_EQ(stats.num_queries, 5);
  EXPECT_EQ(stats.num_attributes, 6);
  EXPECT_EQ(stats.distinct_queries, 5);
  EXPECT_EQ(stats.empty_queries, 0);
  EXPECT_EQ(stats.min_query_size, 2);
  EXPECT_EQ(stats.max_query_size, 2);
  EXPECT_DOUBLE_EQ(stats.mean_query_size, 2.0);
  ASSERT_EQ(stats.size_histogram.size(), 3u);
  EXPECT_EQ(stats.size_histogram[2], 5);
  // PowerDoors (attr 3) is the most frequent, count 3.
  EXPECT_EQ(stats.attribute_frequencies[0].first, 3);
  EXPECT_EQ(stats.attribute_frequencies[0].second, 3);
  // All 10 attribute occurrences are within the top 5 attributes... the
  // log uses 6 attributes; top-5 covers all but the least frequent one.
  EXPECT_GT(stats.top5_attribute_share, 0.8);
}

TEST(LogStatsTest, EmptyLog) {
  const QueryLog log(AttributeSchema::Anonymous(4));
  const QueryLogStats stats = ComputeQueryLogStats(log);
  EXPECT_EQ(stats.num_queries, 0);
  EXPECT_EQ(stats.distinct_queries, 0);
  EXPECT_EQ(stats.min_query_size, 0);
  EXPECT_EQ(stats.max_query_size, 0);
  EXPECT_DOUBLE_EQ(stats.mean_query_size, 0.0);
  EXPECT_DOUBLE_EQ(stats.top5_attribute_share, 0.0);
}

TEST(LogStatsTest, CountsDuplicatesAndEmpties) {
  QueryLog log(AttributeSchema::Anonymous(3));
  log.AddQueryFromIndices({0, 1});
  log.AddQueryFromIndices({0, 1});
  log.AddQuery(DynamicBitset(3));
  const QueryLogStats stats = ComputeQueryLogStats(log);
  EXPECT_EQ(stats.num_queries, 3);
  EXPECT_EQ(stats.distinct_queries, 2);
  EXPECT_EQ(stats.empty_queries, 1);
  EXPECT_EQ(stats.min_query_size, 0);
}

TEST(LogStatsTest, FormatMentionsAttributeNames) {
  const QueryLog log = testdata::PaperQueryLog();
  const std::string text =
      FormatQueryLogStats(log, ComputeQueryLogStats(log));
  EXPECT_NE(text.find("PowerDoors:3"), std::string::npos);
  EXPECT_NE(text.find("queries: 5"), std::string::npos);
}

TEST(LogStatsTest, CollapseDuplicatesPreservesTotals) {
  QueryLog log(AttributeSchema::Anonymous(4));
  log.AddQueryFromIndices({0});
  log.AddQueryFromIndices({1, 2});
  log.AddQueryFromIndices({0});
  log.AddQueryFromIndices({0});
  const CollapsedLog collapsed = CollapseDuplicateQueries(log);
  ASSERT_EQ(collapsed.queries.size(), 2);
  EXPECT_EQ(collapsed.weights, (std::vector<int>{3, 1}));
  EXPECT_EQ(collapsed.queries.query(0).SetBits(), (std::vector<int>{0}));
}

TEST(LogStatsTest, WeightedCountMatchesPlainCount) {
  Rng rng(99);
  const AttributeSchema schema = AttributeSchema::Anonymous(10);
  datagen::SyntheticWorkloadOptions wl;
  wl.num_queries = 200;
  const QueryLog log = datagen::MakeSyntheticWorkload(schema, wl);
  const CollapsedLog collapsed = CollapseDuplicateQueries(log);
  // Duplicates exist at this size.
  EXPECT_LT(collapsed.queries.size(), log.size());
  for (int trial = 0; trial < 20; ++trial) {
    DynamicBitset tuple(10);
    for (int a = 0; a < 10; ++a) {
      if (rng.NextBernoulli(0.5)) tuple.Set(a);
    }
    EXPECT_EQ(CountSatisfiedWeighted(collapsed.queries, collapsed.weights,
                                     tuple),
              CountSatisfiedQueries(log, tuple));
  }
}

}  // namespace
}  // namespace soc
