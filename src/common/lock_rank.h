// The project-wide lock hierarchy: every long-lived Mutex/SharedMutex is
// constructed with one of the ranks below, and ranks must be acquired in
// strictly increasing order on any one thread. The table *is* the
// deadlock-freedom argument: a cycle in the acquisition order would need
// some rank to be acquired under a greater-or-equal one, which
//
//   - the static side rejects in CI (soc_lint's lock-hierarchy pass
//     reconstructs held-lock regions from MutexLock scopes, builds the
//     cross-TU acquisition graph, and checks every edge against these
//     ranks), and
//   - the runtime side rejects in every debug/sanitizer build (each
//     thread keeps a stack of held ranks; an out-of-order acquisition
//     aborts with both lock names before it can deadlock).
//
// Adding a mutex: pick the slot that reflects who may hold what while
// acquiring it — outer coordination layers get low ranks, leaf utilities
// that everything may call into (metrics, tracing, the thread pool) get
// high ranks — then construct the mutex with that rank and re-run
// `soc_lint`. Gaps of 5 are left between neighbours so a new lock can
// slot between two existing ones without renumbering. Rank 0 means
// "unranked" (short-lived test/local mutexes); unranked locks are exempt
// from the runtime check but soc_lint requires a rank on every mutex
// member declared in the serving layers. See DESIGN.md §14.

#ifndef SOC_COMMON_LOCK_RANK_H_
#define SOC_COMMON_LOCK_RANK_H_

#include <cstdio>
#include <cstdlib>

// Runtime enforcement is on wherever a deadlock would be caught by CI
// anyway (debug and sanitizer builds) and off in release builds, where
// the checked hierarchy is already a compile/CI-time fact. The CMake
// option SOC_LOCK_RANKING=ON force-defines it for any build type.
#if !defined(SOC_LOCK_RANKING)
#if !defined(NDEBUG) || defined(__SANITIZE_THREAD__) || \
    defined(__SANITIZE_ADDRESS__)
#define SOC_LOCK_RANKING 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define SOC_LOCK_RANKING 1
#else
#define SOC_LOCK_RANKING 0
#endif
#else
#define SOC_LOCK_RANKING 0
#endif
#endif

namespace soc {

// A rank in the lock hierarchy. Aggregate so the table below stays
// constexpr; rank 0 (the default) means unranked/exempt.
struct LockRank {
  int rank = 0;
  const char* name = nullptr;
};

inline constexpr bool kLockRankingEnabled = SOC_LOCK_RANKING != 0;

namespace lock_rank {

// ---- tenant layer: routing and per-shard state (outermost) ----
inline constexpr LockRank kTenantRegistry{10, "tenant.registry"};
inline constexpr LockRank kShardInflight{15, "tenant.shard.inflight"};
inline constexpr LockRank kShardQueue{20, "tenant.shard.queue"};
inline constexpr LockRank kResultCacheFlightTable{25,
                                                  "tenant.result_cache.flights"};
inline constexpr LockRank kResultCacheLru{30, "tenant.result_cache.lru"};
inline constexpr LockRank kResultCacheFlight{35, "tenant.result_cache.flight"};

// ---- serve layer: preprocessing ----
inline constexpr LockRank kMfiFlightTable{50, "serve.mfi.flights"};
inline constexpr LockRank kMfiCache{55, "serve.mfi.cache"};
inline constexpr LockRank kMfiFlight{60, "serve.mfi.flight"};
inline constexpr LockRank kPreprocessingBitmaps{65, "serve.bitmaps"};

// ---- serve layer: overload-control components ----
inline constexpr LockRank kCostModel{70, "serve.cost_model"};
inline constexpr LockRank kCircuitBreaker{72, "serve.breaker"};
inline constexpr LockRank kDegradationLadder{74, "serve.ladder"};
inline constexpr LockRank kRetryBudget{76, "serve.retry"};
inline constexpr LockRank kWatchdog{78, "serve.watchdog"};
inline constexpr LockRank kMetricsExporter{80, "serve.metrics_exporter"};

// ---- observability v2: SLO accounting and the wide-event pipeline ----
inline constexpr LockRank kSloEngine{82, "obs.slo_engine"};
inline constexpr LockRank kEventPump{84, "obs.event_pump"};

// ---- leaf utilities: anything above may hold a lock while entering ----
inline constexpr LockRank kServeMetrics{85, "serve.metrics"};
inline constexpr LockRank kEventLog{86, "obs.event_log"};
inline constexpr LockRank kProfiler{88, "obs.profiler"};
inline constexpr LockRank kTraceRecorder{90, "obs.trace_recorder"};
inline constexpr LockRank kThreadPool{95, "common.thread_pool"};

}  // namespace lock_rank

namespace lock_rank_internal {

#if SOC_LOCK_RANKING

// Per-thread stack of held ranked locks. Fixed capacity: the hierarchy
// is ~20 ranks deep in total, so 64 simultaneously held ranked locks on
// one thread is unreachable short of a bug this checker exists to catch.
struct HeldStack {
  static constexpr int kCapacity = 64;
  LockRank entries[kCapacity];
  int size = 0;
};

inline HeldStack& Held() {
  thread_local HeldStack stack;
  return stack;
}

// Called before the underlying lock is taken, so an inversion aborts
// with a report instead of deadlocking. Strictly increasing: acquiring
// rank r while any held rank >= r is a violation (equal ranks never
// nest — two locks that may be held together must occupy distinct
// slots in the table).
inline void CheckAcquire(const LockRank& rank) {
  if (rank.rank == 0) return;
  const HeldStack& held = Held();
  for (int i = held.size - 1; i >= 0; --i) {
    if (held.entries[i].rank >= rank.rank) {
      std::fprintf(
          stderr,
          "soc: lock-rank violation: acquiring \"%s\" (rank %d) while "
          "holding \"%s\" (rank %d); locks must be acquired in strictly "
          "increasing rank order (common/lock_rank.h, DESIGN.md \xC2\xA7"
          "14)\n",
          rank.name != nullptr ? rank.name : "?", rank.rank,
          held.entries[i].name != nullptr ? held.entries[i].name : "?",
          held.entries[i].rank);
      std::abort();
    }
  }
}

// Called after a successful acquisition (TryLock pushes only on true).
inline void Push(const LockRank& rank) {
  if (rank.rank == 0) return;
  HeldStack& held = Held();
  if (held.size >= HeldStack::kCapacity) {
    std::fprintf(stderr,
                 "soc: lock-rank stack overflow acquiring \"%s\"\n",
                 rank.name != nullptr ? rank.name : "?");
    std::abort();
  }
  held.entries[held.size++] = rank;
}

// Unlock order is usually LIFO but not required to be; drop the most
// recent matching entry.
inline void Pop(const LockRank& rank) {
  if (rank.rank == 0) return;
  HeldStack& held = Held();
  for (int i = held.size - 1; i >= 0; --i) {
    if (held.entries[i].rank == rank.rank &&
        held.entries[i].name == rank.name) {
      for (int j = i; j + 1 < held.size; ++j) {
        held.entries[j] = held.entries[j + 1];
      }
      --held.size;
      return;
    }
  }
}

#else  // !SOC_LOCK_RANKING

inline void CheckAcquire(const LockRank&) {}
inline void Push(const LockRank&) {}
inline void Pop(const LockRank&) {}

#endif  // SOC_LOCK_RANKING

}  // namespace lock_rank_internal
}  // namespace soc

#endif  // SOC_COMMON_LOCK_RANK_H_
