#include "serve/visibility_service.h"

#include <memory>

namespace soc::serve {

namespace {

tenant::TenantShardOptions ShardOptions(const VisibilityServiceOptions& o) {
  tenant::TenantShardOptions shard;
  shard.num_workers = o.num_workers;
  shard.max_queue = o.max_queue;
  // No result cache: every single-tenant request runs its solver.
  shard.result_cache_capacity = 0;
  shard.default_deadline_ms = o.default_deadline_ms;
  shard.reject_expired = o.reject_expired;
  shard.predictive_shedding = o.predictive_shedding;
  shard.cost_model = o.cost_model;
  shard.breaker = o.breaker;
  shard.ladder = o.ladder;
  shard.watchdog = o.watchdog;
  shard.trace_recorder = o.trace_recorder;
  shard.event_log = o.event_log;
  shard.slo_engine = o.slo_engine;
  shard.worker_hook = o.worker_hook;
  return shard;
}

}  // namespace

VisibilityService::VisibilityService(QueryLog log,
                                     VisibilityServiceOptions options)
    : snapshot_(std::make_shared<const tenant::TenantSnapshot>(
          /*tenant_id=*/"", /*epoch=*/0, std::move(log),
          options.mfi_cache_capacity)),
      shard_(/*shard_index=*/-1, ShardOptions(options)) {}

MetricsSnapshot VisibilityService::Metrics() const {
  MetricsSnapshot snapshot = shard_.Metrics();
  const CacheStats stats = snapshot_->preprocessing().mfi_stats();
  snapshot.counters["mfi_cache.hits"] = stats.hits;
  snapshot.counters["mfi_cache.misses"] = stats.misses;
  snapshot.counters["mfi_cache.evictions"] = stats.evictions;
  snapshot.gauges["mfi_cache.entries"] = static_cast<double>(stats.entries);
  snapshot.gauges["mfi_cache.approx_bytes"] =
      static_cast<double>(stats.approx_bytes);
  return snapshot;
}

}  // namespace soc::serve
