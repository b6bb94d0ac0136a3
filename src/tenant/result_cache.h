// ResultCache: the per-shard answer cache of the multi-tenant layer.
//
// Keyed by (tenant, requested solver, canonical tuple bits, m,
// log-epoch): two requests that agree on all five get the same answer,
// so a hit skips admission cost modeling, preprocessing and the solver
// entirely. The solver is part of the key because the heuristics answer
// below the optimum: without it an exact request could replay a greedy
// request's answer. The epoch component makes PublishEpoch invalidation
// free — no scan, no version check at read time: post-publish requests
// pin the new snapshot, form keys with the new epoch, and old-epoch
// entries are simply unreachable until the LRU ages them out.
//
// Only exact (OK, non-degraded) results are admitted; a degraded partial
// answer is a function of its deadline, not of the key, and must never
// be replayed to a request with a healthier budget.
//
// Misses are single-flight per key, mirroring SharedMfiIndex: concurrent
// misses elect one leader (the caller that receives a Flight token);
// followers wait for its Publish/Abandon and then re-probe — an
// abandoned flight promotes the first re-probing follower to the new
// leader. Followers bound their wait by the request deadline so a
// wedged leader cannot stall a worker past its budget.
//
// Every hit/miss/evict path increments a named ServeMetrics counter
// (kResultCache*); soc_lint's cache-metrics rule pins this invariant.

#ifndef SOC_TENANT_RESULT_CACHE_H_
#define SOC_TENANT_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "core/solver.h"
#include "serve/metrics.h"

namespace soc::tenant {

// Counter names recorded into the shard's ServeMetrics.
inline constexpr char kResultCacheHits[] = "result_cache.hits";
inline constexpr char kResultCacheMisses[] = "result_cache.misses";
inline constexpr char kResultCacheEvictions[] = "result_cache.evictions";
inline constexpr char kResultCacheInserts[] = "result_cache.inserts";
inline constexpr char kResultCacheFlightWaits[] = "result_cache.flight_waits";

struct ResultCacheKey {
  std::string tenant_id;
  std::string solver;      // The solver the request asked for.
  std::string tuple_bits;  // Canonical 0/1 string, log-width.
  int m = 0;
  std::int64_t epoch = 0;

  friend bool operator<(const ResultCacheKey& a, const ResultCacheKey& b) {
    return std::tie(a.tenant_id, a.epoch, a.m, a.solver, a.tuple_bits) <
           std::tie(b.tenant_id, b.epoch, b.m, b.solver, b.tuple_bits);
  }
  friend bool operator==(const ResultCacheKey& a, const ResultCacheKey& b) {
    return a.tenant_id == b.tenant_id && a.epoch == b.epoch && a.m == b.m &&
           a.solver == b.solver && a.tuple_bits == b.tuple_bits;
  }
};

// What a hit replays: the exact solution plus the solver that produced
// it (echoed in the response so clients can see provenance).
struct CachedResult {
  SocSolution solution;
  std::string solver;
};
using CachedResultPtr = std::shared_ptr<const CachedResult>;

class ResultCache {
 public:
  // One in-progress solve per key. Returned by value (shared_ptr) from
  // Lookup to leaders; the leader must call Publish or Abandon exactly
  // once.
  struct Flight {
    Mutex mutex{lock_rank::kResultCacheFlight};
    CondVar cv;
    bool done SOC_GUARDED_BY(mutex) = false;
  };
  using FlightPtr = std::shared_ptr<Flight>;

  // `capacity` >= 1 entries (clamped); `metrics` non-owning, may be
  // nullptr (counters dropped — tests only).
  ResultCache(std::size_t capacity, serve::ServeMetrics* metrics);

  // The combined probe-or-join:
  //  * hit: returns the cached result (*leader_flight left null);
  //  * cold miss: returns nullptr and sets *leader_flight — the caller
  //    is the leader and owes Publish/Abandon;
  //  * in-flight miss: blocks until the leader resolves or `deadline`
  //    expires, then re-probes. Resolves to a hit, to leadership (the
  //    leader abandoned), or — on deadline expiry — to a nullptr miss
  //    with *leader_flight null: the caller should solve for itself and
  //    not publish.
  // Every return path has counted exactly one hit or one miss.
  CachedResultPtr Lookup(const ResultCacheKey& key, const Deadline& deadline,
                         FlightPtr* leader_flight)
      SOC_EXCLUDES(mutex_, flights_mutex_);

  // Leader success: inserts (evicting LRU entries past capacity) and
  // releases followers.
  void Publish(const ResultCacheKey& key, FlightPtr flight,
               CachedResult result) SOC_EXCLUDES(mutex_, flights_mutex_);

  // Leader failure (error / degraded / shed): releases followers without
  // inserting; the first re-prober becomes the new leader.
  void Abandon(const ResultCacheKey& key, FlightPtr flight)
      SOC_EXCLUDES(mutex_, flights_mutex_);

  std::size_t size() const SOC_EXCLUDES(mutex_);
  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    CachedResultPtr result;
    // Position in lru_ (front = most recently used); list iterators are
    // stable under splice.
    std::list<const ResultCacheKey*>::iterator lru_pos;
  };

  // Probe + recency bump; counts a hit when found and `count` is true.
  CachedResultPtr Probe(const ResultCacheKey& key, bool count)
      SOC_EXCLUDES(mutex_);
  // Resolve the flight for `key` (if it is still `flight`) and wake
  // followers.
  void Resolve(const ResultCacheKey& key, const FlightPtr& flight)
      SOC_EXCLUDES(flights_mutex_);
  void Count(const char* name) const;

  const std::size_t capacity_;
  serve::ServeMetrics* const metrics_;  // Non-owning; may be nullptr.

  mutable Mutex mutex_{lock_rank::kResultCacheLru};
  std::map<ResultCacheKey, Entry> entries_ SOC_GUARDED_BY(mutex_);
  // Keys point into entries_ (std::map nodes are stable).
  std::list<const ResultCacheKey*> lru_ SOC_GUARDED_BY(mutex_);

  Mutex flights_mutex_{lock_rank::kResultCacheFlightTable};
  std::map<ResultCacheKey, FlightPtr> flights_ SOC_GUARDED_BY(flights_mutex_);
};

}  // namespace soc::tenant

#endif  // SOC_TENANT_RESULT_CACHE_H_
