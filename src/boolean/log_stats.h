// Query-log analytics: the summary statistics that drive solver choice
// (the paper's "short and wide" vs "long and narrow" distinction, Fig 11)
// and workload understanding (query-size histogram, attribute skew,
// duplication).

#ifndef SOC_BOOLEAN_LOG_STATS_H_
#define SOC_BOOLEAN_LOG_STATS_H_

#include <string>
#include <utility>
#include <vector>

#include "boolean/query_log.h"

namespace soc {

struct QueryLogStats {
  int num_queries = 0;
  int num_attributes = 0;
  int distinct_queries = 0;    // After exact-duplicate collapsing.
  int empty_queries = 0;
  int min_query_size = 0;
  int max_query_size = 0;
  double mean_query_size = 0.0;
  // size_histogram[s] = number of queries with exactly s attributes.
  std::vector<int> size_histogram;
  // Per-attribute frequency, descending, as (attribute id, count).
  std::vector<std::pair<int, int>> attribute_frequencies;
  // Fraction of all attribute occurrences covered by the top-5 attributes
  // (concentration: high values make frequency greedies near-optimal).
  double top5_attribute_share = 0.0;
};

QueryLogStats ComputeQueryLogStats(const QueryLog& log);

// Human-readable multi-line rendering (attribute names resolved through
// the log's schema).
std::string FormatQueryLogStats(const QueryLog& log,
                                const QueryLogStats& stats);

// A query log with exact duplicates collapsed: `queries.query(i)` stands
// for `weights[i]` >= 1 identical queries of the raw log, in order of first
// occurrence, so Σ weights = the raw log's size. The paper's objective is a
// count over the multiset Q, so it reads the same on both forms;
// BruteForceSolver, BnbSocSolver and GreedySolver solve this form directly
// (SolveCollapsed).
struct CollapsedLog {
  QueryLog queries;
  std::vector<int> weights;
};

CollapsedLog CollapseDuplicateQueries(const QueryLog& log);

// The same collapse, returned as its two parts (the layer bench in
// perfbench/ times it this way).
inline QueryLog CollapseDuplicateQueries(const QueryLog& log,
                                         std::vector<int>* weights) {
  CollapsedLog collapsed = CollapseDuplicateQueries(log);
  *weights = std::move(collapsed.weights);
  return std::move(collapsed.queries);
}

// Weighted conjunctive objective over a collapsed log: Σ weights[i] over
// queries retrieved by `tuple`. Equals CountSatisfiedQueries on the
// original log by construction.
int CountSatisfiedWeighted(const QueryLog& deduped,
                           const std::vector<int>& weights,
                           const DynamicBitset& tuple);

}  // namespace soc

#endif  // SOC_BOOLEAN_LOG_STATS_H_
