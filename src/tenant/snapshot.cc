#include "tenant/snapshot.h"

#include <unordered_set>
#include <utility>

namespace soc::tenant {

namespace {

// The log's collapse ratio (distinct / total queries) is the weighted-
// instance compression statistic: heavily repeated logs solve faster
// than their raw |Q| suggests.
serve::CostFeatures FeaturesFromLog(const QueryLog& log) {
  serve::CostFeatures features;
  features.num_queries = log.size();
  features.num_attributes = log.num_attributes();
  if (!log.empty()) {
    std::unordered_set<std::string> distinct;
    distinct.reserve(log.size());
    for (const DynamicBitset& query : log.queries()) {
      distinct.insert(query.ToString());
    }
    features.collapse_ratio =
        static_cast<double>(distinct.size()) / log.size();
  }
  return features;
}

}  // namespace

TenantSnapshot::TenantSnapshot(std::string tenant_id, std::int64_t epoch,
                               QueryLog log, std::size_t mfi_cache_capacity)
    : tenant_id_(std::move(tenant_id)),
      epoch_(epoch),
      log_(std::move(log)),
      features_(FeaturesFromLog(log_)),
      preprocessing_(log_, mfi_cache_capacity) {}

}  // namespace soc::tenant
