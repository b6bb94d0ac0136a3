#include "boolean/log_stats.h"

#include <algorithm>
#include <unordered_map>

#include "common/string_util.h"

namespace soc {

QueryLogStats ComputeQueryLogStats(const QueryLog& log) {
  QueryLogStats stats;
  stats.num_queries = log.size();
  stats.num_attributes = log.num_attributes();

  std::unordered_map<DynamicBitset, int, DynamicBitsetHash> seen;
  long long total_size = 0;
  stats.min_query_size = log.empty() ? 0 : log.num_attributes() + 1;
  for (const DynamicBitset& q : log.queries()) {
    const int size = static_cast<int>(q.Count());
    total_size += size;
    if (size == 0) ++stats.empty_queries;
    stats.min_query_size = std::min(stats.min_query_size, size);
    stats.max_query_size = std::max(stats.max_query_size, size);
    if (static_cast<int>(stats.size_histogram.size()) <= size) {
      stats.size_histogram.resize(size + 1, 0);
    }
    ++stats.size_histogram[size];
    ++seen[q];
  }
  if (log.empty()) stats.min_query_size = 0;
  stats.distinct_queries = static_cast<int>(seen.size());
  stats.mean_query_size =
      log.empty() ? 0.0 : static_cast<double>(total_size) / log.size();

  const std::vector<int> freq = log.AttributeFrequencies();
  for (int a = 0; a < log.num_attributes(); ++a) {
    stats.attribute_frequencies.emplace_back(a, freq[a]);
  }
  std::sort(stats.attribute_frequencies.begin(),
            stats.attribute_frequencies.end(),
            [](const auto& x, const auto& y) {
              if (x.second != y.second) return x.second > y.second;
              return x.first < y.first;
            });
  if (total_size > 0) {
    long long top5 = 0;
    for (std::size_t i = 0; i < 5 && i < stats.attribute_frequencies.size();
         ++i) {
      top5 += stats.attribute_frequencies[i].second;
    }
    stats.top5_attribute_share = static_cast<double>(top5) / total_size;
  }
  return stats;
}

std::string FormatQueryLogStats(const QueryLog& log,
                                const QueryLogStats& stats) {
  std::string out;
  out += StrFormat("queries: %d (%d distinct, %d empty) over %d attributes\n",
                   stats.num_queries, stats.distinct_queries,
                   stats.empty_queries, stats.num_attributes);
  out += StrFormat("query size: min %d / mean %.2f / max %d\n",
                   stats.min_query_size, stats.mean_query_size,
                   stats.max_query_size);
  out += "size histogram:";
  for (std::size_t s = 0; s < stats.size_histogram.size(); ++s) {
    if (stats.size_histogram[s] > 0) {
      out += StrFormat(" %zu:%d", s, stats.size_histogram[s]);
    }
  }
  out += "\ntop attributes:";
  for (std::size_t i = 0; i < 8 && i < stats.attribute_frequencies.size();
       ++i) {
    const auto& [attr, count] = stats.attribute_frequencies[i];
    if (count == 0) break;
    out += StrFormat(" %s:%d", log.schema().name(attr).c_str(), count);
  }
  out += StrFormat("\ntop-5 attribute share: %.1f%%\n",
                   100.0 * stats.top5_attribute_share);
  return out;
}

CollapsedLog CollapseDuplicateQueries(const QueryLog& log) {
  CollapsedLog collapsed{QueryLog(log.schema()), {}};
  std::unordered_map<DynamicBitset, int, DynamicBitsetHash> index;
  for (const DynamicBitset& q : log.queries()) {
    const auto [it, inserted] = index.emplace(q, collapsed.queries.size());
    if (inserted) {
      collapsed.queries.AddQuery(q);
      collapsed.weights.push_back(1);
    } else {
      ++collapsed.weights[it->second];
    }
  }
  return collapsed;
}

int CountSatisfiedWeighted(const QueryLog& deduped,
                           const std::vector<int>& weights,
                           const DynamicBitset& tuple) {
  SOC_CHECK_EQ(deduped.size(), static_cast<int>(weights.size()));
  int total = 0;
  for (int i = 0; i < deduped.size(); ++i) {
    if (deduped.query(i).IsSubsetOf(tuple)) total += weights[i];
  }
  return total;
}

}  // namespace soc
