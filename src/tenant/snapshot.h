// TenantSnapshot: one immutable epoch of one tenant's serving state —
// the query log, the PreprocessingCache (shared MFI threshold indexes +
// attribute bitmaps) built over it, and the log's CostFeatures (size,
// width, collapse ratio), computed once here and read by the cost-model
// prior and every wide event of a request served against the snapshot.
//
// Snapshots are the RCU unit of the serving layer. The registry hands
// them out as shared_ptr-to-const; a request pins the snapshot it was
// admitted under for its whole lifetime, so PublishEpoch can swap the
// registry's slot without waiting for in-flight solves — the old epoch
// is destroyed when its last pinned reference drops ("drains"). The
// single-tenant VisibilityService holds one snapshot (tenant "", epoch
// 0) for its whole life.
//
// Tenant epochs are monotonically increasing from 1. The epoch number
// participates in every ResultCache key, which is what makes cache
// invalidation on publish free: new requests pin the new snapshot, form
// keys with the new epoch, and simply never look up old entries (which
// age out of the LRU).
//
// The PreprocessingCache holds a reference to the snapshot's own log;
// snapshots are always heap-allocated (see TenantRegistry), so that
// reference is stable for the snapshot's lifetime.

#ifndef SOC_TENANT_SNAPSHOT_H_
#define SOC_TENANT_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "boolean/query_log.h"
#include "serve/cost_model.h"
#include "serve/preprocessing_cache.h"

namespace soc::tenant {

class TenantSnapshot {
 public:
  // `mfi_cache_capacity` bounds each MFI engine's threshold cache, as in
  // VisibilityServiceOptions.
  TenantSnapshot(std::string tenant_id, std::int64_t epoch, QueryLog log,
                 std::size_t mfi_cache_capacity);

  TenantSnapshot(const TenantSnapshot&) = delete;
  TenantSnapshot& operator=(const TenantSnapshot&) = delete;

  const std::string& tenant_id() const { return tenant_id_; }
  std::int64_t epoch() const { return epoch_; }
  const QueryLog& log() const { return log_; }
  const serve::CostFeatures& features() const { return features_; }

  // Logically const: the cache is internally synchronized lazy state
  // (bitmaps, mined itemsets) over the immutable log.
  serve::PreprocessingCache& preprocessing() const { return preprocessing_; }

 private:
  const std::string tenant_id_;
  const std::int64_t epoch_;
  const QueryLog log_;  // Before preprocessing_: it holds a reference.
  const serve::CostFeatures features_;
  mutable serve::PreprocessingCache preprocessing_;
};

using SnapshotPtr = std::shared_ptr<const TenantSnapshot>;

}  // namespace soc::tenant

#endif  // SOC_TENANT_SNAPSHOT_H_
