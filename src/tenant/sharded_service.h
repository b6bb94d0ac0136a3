// ShardedService: the multi-tenant front door. Composes a TenantRegistry
// (tenant -> snapshot RCU slots + consistent-hash ring) with N
// TenantShards (each a full serving pipeline: EDF queue, cost model,
// breakers, ladder, watchdog, worker pool, result cache).
//
// Data path:  Submit pins the tenant's current snapshot from the
//             registry and hands request + snapshot to the tenant's ring
//             shard; everything after — cache probe, admission, solve —
//             is shard-local, so tenants on different shards share
//             nothing but the registry's read-mostly lock.
// Admin path: CreateTenant / PublishEpoch build snapshots off to the
//             side and swap registry slots; no shard pauses, no queue
//             flush — in-flight requests finish on the epoch they
//             pinned, new requests pick up the new one.
//
// Metrics() folds per-shard snapshots into service totals (counters and
// histograms merge exactly; see MetricsSnapshot::MergeFrom) and exposes
// every shard's gauge set under a `shard.<i>.` prefix — the per-shard
// queue/occupancy view the Prometheus exporter renders.

#ifndef SOC_TENANT_SHARDED_SERVICE_H_
#define SOC_TENANT_SHARDED_SERVICE_H_

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "boolean/query_log.h"
#include "common/status.h"
#include "serve/metrics.h"
#include "serve/request.h"
#include "tenant/registry.h"
#include "tenant/shard.h"

namespace soc::tenant {

struct ShardedServiceOptions {
  int num_shards = 4;
  int vnodes_per_shard = 64;
  // Per-engine MFI threshold-cache capacity of every snapshot.
  std::size_t mfi_cache_capacity = 32;
  // Applied to every shard.
  TenantShardOptions shard;
};

class ShardedService {
 public:
  explicit ShardedService(ShardedServiceOptions options = {});
  ~ShardedService();

  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;

  // Admin path. Thread-safe against the data path and against itself.
  Status CreateTenant(const std::string& id, QueryLog log);
  // Returns the new epoch; counts `epochs_published` and emits a
  // publish_epoch trace span.
  StatusOr<std::int64_t> PublishEpoch(const std::string& id, QueryLog log);

  // Data path: routes to the owning shard. Non-blocking; the returned
  // future resolves with the full admission/overload semantics of
  // TenantShard::Submit.
  std::future<serve::SolveResponse> Submit(serve::SolveRequest request);

  // Blocks until every shard's accepted requests have resolved.
  void Drain();

  TenantRegistry& registry() { return registry_; }
  const TenantRegistry& registry() const { return registry_; }
  int ShardOf(const std::string& tenant_id) const {
    return registry_.ShardOf(tenant_id);
  }

  // Merged counters/histograms + per-shard `shard.<i>.*` gauges +
  // registry gauges (tenants, epochs_published).
  serve::MetricsSnapshot Metrics() const;

 private:
  const ShardedServiceOptions options_;
  TenantRegistry registry_;
  std::vector<std::unique_ptr<TenantShard>> shards_;
};

}  // namespace soc::tenant

#endif  // SOC_TENANT_SHARDED_SERVICE_H_
