#include "boolean/evaluator.h"

#include <gtest/gtest.h>

#include "paper_example.h"

namespace soc {
namespace {

TEST(EvaluatorTest, PaperExampleOptimumSatisfiesThreeQueries) {
  // Sec II.A: retaining {AC, FourDoor, PowerDoors} satisfies q1, q2, q3.
  QueryLog log = testdata::PaperQueryLog();
  DynamicBitset t_prime = DynamicBitset::FromString("110100");
  EXPECT_EQ(CountSatisfiedQueries(log, t_prime), 3);
  EXPECT_EQ(SatisfiedQueryIndices(log, t_prime), (std::vector<int>{0, 1, 2}));
}

TEST(EvaluatorTest, FullTupleSatisfiesAllButTurboQuery) {
  QueryLog log = testdata::PaperQueryLog();
  DynamicBitset t = testdata::PaperNewTuple();
  // t lacks Turbo, so q5 = {Turbo, AutoTrans} cannot be satisfied.
  EXPECT_EQ(CountSatisfiedQueries(log, t), 4);
}

TEST(EvaluatorTest, ConjunctiveEmptyQueryMatchesEverything) {
  QueryLog log(AttributeSchema::Anonymous(3));
  log.AddQuery(DynamicBitset(3));
  DynamicBitset empty_tuple(3);
  EXPECT_EQ(CountSatisfiedQueries(log, empty_tuple,
                                  RetrievalSemantics::kConjunctive),
            1);
}

TEST(EvaluatorTest, DisjunctiveSemantics) {
  QueryLog log = testdata::PaperQueryLog();
  // Under disjunction, retaining only AutoTrans satisfies just q5.
  DynamicBitset only_auto = DynamicBitset::FromString("000010");
  EXPECT_EQ(
      CountSatisfiedQueries(log, only_auto, RetrievalSemantics::kDisjunctive),
      1);
  // Retaining PowerDoors intersects q2, q3, q4.
  DynamicBitset only_pd = DynamicBitset::FromString("000100");
  EXPECT_EQ(
      CountSatisfiedQueries(log, only_pd, RetrievalSemantics::kDisjunctive),
      3);
}

TEST(EvaluatorTest, DisjunctiveEmptyQueryMatchesNothing) {
  QueryLog log(AttributeSchema::Anonymous(3));
  log.AddQuery(DynamicBitset(3));
  DynamicBitset full(3);
  full.SetAll();
  EXPECT_EQ(
      CountSatisfiedQueries(log, full, RetrievalSemantics::kDisjunctive), 0);
}

TEST(EvaluatorTest, QueryRetrievesDirect) {
  DynamicBitset q = DynamicBitset::FromString("101");
  DynamicBitset yes = DynamicBitset::FromString("111");
  DynamicBitset no = DynamicBitset::FromString("110");
  EXPECT_TRUE(QueryRetrieves(q, yes, RetrievalSemantics::kConjunctive));
  EXPECT_FALSE(QueryRetrieves(q, no, RetrievalSemantics::kConjunctive));
  EXPECT_TRUE(QueryRetrieves(q, no, RetrievalSemantics::kDisjunctive));
}

TEST(SatisfiableQueryViewTest, FiltersUnwinnableQueries) {
  QueryLog log = testdata::PaperQueryLog();
  DynamicBitset t = testdata::PaperNewTuple();
  SatisfiableQueryView view(log, t);
  // q5 requires Turbo which t lacks; the other four are satisfiable.
  EXPECT_EQ(view.size(), 4);
  EXPECT_EQ(view.original_index(0), 0);
  EXPECT_EQ(view.original_index(3), 3);
}

TEST(SatisfiableQueryViewTest, EmptyLog) {
  QueryLog log(AttributeSchema::Anonymous(3));
  DynamicBitset t(3);
  t.SetAll();
  SatisfiableQueryView view(log, t);
  EXPECT_EQ(view.size(), 0);
}

}  // namespace
}  // namespace soc
