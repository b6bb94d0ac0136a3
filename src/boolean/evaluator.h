// Visibility evaluators: given a compressed tuple t', how many queries of
// the log retrieve it under a given retrieval semantics?
//
// Conjunctive Boolean Retrieval (the paper's main variant): query q
// retrieves t' iff q ⊆ t'. Disjunctive Boolean Retrieval (Sec II.B): q
// retrieves t' iff q ∩ t' ≠ ∅ (an empty query retrieves nothing under
// disjunction, everything under conjunction).

#ifndef SOC_BOOLEAN_EVALUATOR_H_
#define SOC_BOOLEAN_EVALUATOR_H_

#include <vector>

#include "boolean/query_log.h"
#include "common/bitset.h"

namespace soc {

enum class RetrievalSemantics {
  kConjunctive,
  kDisjunctive,
};

// True iff query `q` retrieves `tuple` under the given semantics.
bool QueryRetrieves(const DynamicBitset& q, const DynamicBitset& tuple,
                    RetrievalSemantics semantics);

// Number of queries of `log` that retrieve `tuple`. O(S * M/64).
int CountSatisfiedQueries(
    const QueryLog& log, const DynamicBitset& tuple,
    RetrievalSemantics semantics = RetrievalSemantics::kConjunctive);

// Indices of the queries that retrieve `tuple`.
std::vector<int> SatisfiedQueryIndices(
    const QueryLog& log, const DynamicBitset& tuple,
    RetrievalSemantics semantics = RetrievalSemantics::kConjunctive);

// A prefiltered view of a query log for one new tuple t: only queries with
// q ⊆ t can ever be satisfied by a compression t' ⊆ t, so solvers iterate
// over this subset. Remembers the mapping back to original query indices.
class SatisfiableQueryView {
 public:
  SatisfiableQueryView(const QueryLog& log, const DynamicBitset& tuple);

  int size() const { return static_cast<int>(queries_.size()); }
  const DynamicBitset& query(int i) const { return queries_[i]; }
  const std::vector<DynamicBitset>& queries() const { return queries_; }
  int original_index(int i) const { return original_indices_[i]; }

 private:
  std::vector<DynamicBitset> queries_;
  std::vector<int> original_indices_;
};

}  // namespace soc

#endif  // SOC_BOOLEAN_EVALUATOR_H_
