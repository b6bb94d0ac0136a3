#include "boolean/evaluator.h"

namespace soc {

bool QueryRetrieves(const DynamicBitset& q, const DynamicBitset& tuple,
                    RetrievalSemantics semantics) {
  switch (semantics) {
    case RetrievalSemantics::kConjunctive:
      return q.IsSubsetOf(tuple);
    case RetrievalSemantics::kDisjunctive:
      return q.Intersects(tuple);
  }
  return false;
}

int CountSatisfiedQueries(const QueryLog& log, const DynamicBitset& tuple,
                          RetrievalSemantics semantics) {
  int count = 0;
  for (const DynamicBitset& q : log.queries()) {
    if (QueryRetrieves(q, tuple, semantics)) ++count;
  }
  return count;
}

std::vector<int> SatisfiedQueryIndices(const QueryLog& log,
                                       const DynamicBitset& tuple,
                                       RetrievalSemantics semantics) {
  std::vector<int> indices;
  for (int i = 0; i < log.size(); ++i) {
    if (QueryRetrieves(log.query(i), tuple, semantics)) indices.push_back(i);
  }
  return indices;
}

SatisfiableQueryView::SatisfiableQueryView(const QueryLog& log,
                                           const DynamicBitset& tuple) {
  for (int i = 0; i < log.size(); ++i) {
    if (log.query(i).IsSubsetOf(tuple)) {
      queries_.push_back(log.query(i));
      original_indices_.push_back(i);
    }
  }
}

}  // namespace soc
