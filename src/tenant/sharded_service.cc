#include "tenant/sharded_service.h"

#include <utility>

#include "obs/context_tracer.h"

namespace soc::tenant {

ShardedService::ShardedService(ShardedServiceOptions options)
    : options_(options), registry_(options.num_shards, [&] {
        TenantRegistryOptions registry_options;
        registry_options.vnodes_per_shard = options.vnodes_per_shard;
        registry_options.mfi_cache_capacity = options.mfi_cache_capacity;
        return registry_options;
      }()) {
  shards_.reserve(static_cast<std::size_t>(registry_.num_shards()));
  for (int i = 0; i < registry_.num_shards(); ++i) {
    shards_.push_back(
        std::make_unique<TenantShard>(i, options.shard));
  }
}

// Shards drain in their own destructors; explicit so member order is
// irrelevant to correctness.
ShardedService::~ShardedService() { shards_.clear(); }

Status ShardedService::CreateTenant(const std::string& id, QueryLog log) {
  return registry_.CreateTenant(id, std::move(log));
}

StatusOr<std::int64_t> ShardedService::PublishEpoch(const std::string& id,
                                                    QueryLog log) {
  obs::TraceSpan span(options_.shard.trace_recorder, "publish_epoch",
                      "tenant");
  auto epoch = registry_.PublishEpoch(id, std::move(log));
  if (span.active()) {
    span.AddArg(obs::TraceArg::Str("tenant", id));
    span.AddArg(obs::TraceArg::Int("epoch", epoch.ok() ? *epoch : -1));
  }
  return epoch;
}

std::future<serve::SolveResponse> ShardedService::Submit(
    serve::SolveRequest request) {
  obs::TraceSpan span(options_.shard.trace_recorder, "route", "tenant");
  // Unroutable (empty tenant) requests still need a shard to produce the
  // typed rejection; shard 0 is as good as any and keeps the ledger in
  // one place.
  const int shard_index =
      request.tenant_id.empty() ? 0 : registry_.ShardOf(request.tenant_id);
  if (span.active()) {
    span.AddArg(obs::TraceArg::Str("tenant", request.tenant_id));
    span.AddArg(obs::TraceArg::Int("shard", shard_index));
  }
  // Pin the tenant's current snapshot (RCU acquire); nullptr for an
  // empty or unknown tenant, which the shard rejects with a typed error.
  SnapshotPtr snapshot = registry_.Acquire(request.tenant_id);
  return shards_[static_cast<std::size_t>(shard_index)]->Submit(
      std::move(request), std::move(snapshot));
}

void ShardedService::Drain() {
  for (const auto& shard : shards_) shard->Drain();
}

serve::MetricsSnapshot ShardedService::Metrics() const {
  serve::MetricsSnapshot merged;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    serve::MetricsSnapshot shard_snapshot = shards_[i]->Metrics();
    // Every shard gauge is also preserved un-summed under its shard
    // prefix; the merged (summed) copy keeps additive gauges (queue
    // depth, inflight, busy workers) meaningful service-wide.
    for (const auto& [name, value] : shard_snapshot.gauges) {
      merged.gauges["shard." + std::to_string(i) + "." + name] = value;
    }
    merged.MergeFrom(shard_snapshot);
  }
  merged.gauges["tenants"] = static_cast<double>(registry_.tenant_count());
  merged.counters["epochs_published"] = registry_.epochs_published();
  return merged;
}

}  // namespace soc::tenant
