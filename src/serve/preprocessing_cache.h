// Thread-safe preprocessing shared by all workers serving one log (one
// TenantSnapshot, tenant/snapshot.h).
//
// Two expensive per-log artifacts are amortized across requests, the
// paper's "Preprocessing Opportunities" (Sec IV.C) turned into a serving
// concern:
//
//  * SharedMfiIndex — an MfiItemsetSource whose per-threshold maximal-
//    itemset collections live in an LRU-bounded map behind a
//    soc::SharedMutex. Readers take the shared lock (recency and
//    hit/miss counters are atomics bumped under it); mining happens
//    *outside* any lock and is single-flight per threshold: concurrent
//    misses elect one miner, followers wait for its publication instead
//    of duplicating the work. Promotion/eviction take the exclusive
//    lock. Collections are handed out as shared_ptr-to-const, so
//    eviction never invalidates a solve in flight. Partial
//    (context-stopped) mining results are never promoted, matching
//    MfiPreprocessedIndex; a follower whose leader only produced a
//    partial re-mines under its own context.
//
//  * Per-attribute query bitmaps — for each attribute a, the set of log
//    queries mentioning a, plus per-size prefix masks. Built lazily on
//    first use behind the same shared_mutex discipline; immutable after.
//    They give MaxSatisfiable(t, m), an O(M · |Q|/64) upper bound on the
//    objective that lets the service answer provably-zero requests
//    without dispatching a solver.
//
// The locking discipline described above is machine-checked: all guarded
// state carries SOC_GUARDED_BY annotations and lock-assuming helpers are
// SOC_REQUIRES-annotated (see common/thread_annotations.h).

#ifndef SOC_SERVE_PREPROCESSING_CACHE_H_
#define SOC_SERVE_PREPROCESSING_CACHE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "boolean/query_log.h"
#include "common/bitset.h"
#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/mfi_solver.h"

namespace soc::serve {

struct CacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
  // Gauges (point-in-time, not cumulative): resident cached threshold
  // collections and an estimate of their memory footprint.
  std::int64_t entries = 0;
  std::int64_t approx_bytes = 0;
};

// LRU-bounded, shared-lock MfiItemsetSource. Safe for concurrent
// MaximalItemsets calls from any number of threads.
class SharedMfiIndex : public MfiItemsetSource {
 public:
  using ItemsetsPtr =
      std::shared_ptr<const std::vector<itemsets::FrequentItemset>>;

  // `capacity` bounds the number of cached thresholds (>= 1).
  SharedMfiIndex(const QueryLog& log, MfiSocOptions options,
                 std::size_t capacity);

  const itemsets::TransactionDatabase& complemented_db() const override {
    return db_;
  }
  int log_size() const override { return log_size_; }

  StatusOr<ItemsetsPtr> MaximalItemsets(int threshold,
                                        SolveContext* context) override;

  CacheStats stats() const SOC_EXCLUDES(mutex_);

 private:
  // Map nodes are stable, so the atomic recency stamp can be updated
  // under the shared lock while another reader walks the map.
  struct Entry {
    ItemsetsPtr itemsets;
    std::atomic<std::uint64_t> last_used{0};
  };

  // One in-progress mining per threshold; followers wait on `cv` until
  // the leader flips `done`. `published` tells followers whether the
  // result landed in the cache (a partial or failed mining does not).
  struct Flight {
    Mutex mutex{lock_rank::kMfiFlight};
    CondVar cv;
    bool done SOC_GUARDED_BY(mutex) = false;
    bool published SOC_GUARDED_BY(mutex) = false;
  };

  // Mines at `threshold` with no lock held.
  StatusOr<std::vector<itemsets::FrequentItemset>> Mine(int threshold,
                                                        SolveContext* context);

  // Cache probe under the shared lock; bumps recency, and the hit
  // counter when `count_hit` (a follower re-probing after a wait was
  // already counted as a miss). Returns nullptr on absence.
  ItemsetsPtr Lookup(int threshold, bool count_hit) SOC_EXCLUDES(mutex_);

  // The miss path body: mines under `context`, promotes complete results
  // (with LRU eviction), and — when this thread is a flight leader —
  // resolves `flight` and unregisters it whatever the outcome.
  StatusOr<ItemsetsPtr> MineAndPublish(int threshold, SolveContext* context,
                                       Flight* flight)
      SOC_EXCLUDES(mutex_, flights_mutex_);

  const itemsets::TransactionDatabase db_;
  const int log_size_;
  const MfiSocOptions options_;
  const std::size_t capacity_;

  mutable SharedMutex mutex_{lock_rank::kMfiCache};
  std::map<int, Entry> cache_ SOC_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> use_clock_{0};
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> evictions_{0};

  Mutex flights_mutex_{lock_rank::kMfiFlightTable};
  std::map<int, std::shared_ptr<Flight>> flights_
      SOC_GUARDED_BY(flights_mutex_);
};

// The per-log preprocessing bundle a TenantSnapshot owns: one shared
// MFI index per mining engine plus the lazily-built attribute bitmaps.
class PreprocessingCache {
 public:
  // `log` must outlive the cache. `mfi_capacity` bounds each engine's
  // threshold cache.
  PreprocessingCache(const QueryLog& log, std::size_t mfi_capacity);

  // Shared mining indexes for the two registered MFI solver flavors.
  SharedMfiIndex& walk_index() { return walk_index_; }
  SharedMfiIndex& dfs_index() { return dfs_index_; }

  // Exact upper bound on the SOC objective: the number of log queries q
  // with q ⊆ tuple and |q| <= min(m, |tuple|). Thread-safe; builds the
  // bitmaps on first call.
  int MaxSatisfiable(const DynamicBitset& tuple, int m)
      SOC_EXCLUDES(bitmap_mutex_);

  // Aggregated over both MFI indexes.
  CacheStats mfi_stats() const;

 private:
  // Builds the bitmaps if absent; requires the exclusive bitmap lock.
  void EnsureBitmapsLocked() SOC_REQUIRES(bitmap_mutex_);
  // The bound computation proper; callable under a shared (or exclusive)
  // bitmap lock once the bitmaps exist.
  int MaxSatisfiableLocked(const DynamicBitset& tuple, int m) const
      SOC_REQUIRES_SHARED(bitmap_mutex_);

  const QueryLog& log_;
  SharedMfiIndex walk_index_;
  SharedMfiIndex dfs_index_;

  mutable SharedMutex bitmap_mutex_{lock_rank::kPreprocessingBitmaps};
  bool bitmaps_built_ SOC_GUARDED_BY(bitmap_mutex_) = false;
  // queries_with_attr_[a]: bitset over query ids mentioning attribute a.
  std::vector<DynamicBitset> queries_with_attr_ SOC_GUARDED_BY(bitmap_mutex_);
  // size_at_most_[s]: bitset over query ids with |q| <= s (s in 0..M).
  std::vector<DynamicBitset> size_at_most_ SOC_GUARDED_BY(bitmap_mutex_);
};

}  // namespace soc::serve

#endif  // SOC_SERVE_PREPROCESSING_CACHE_H_
