// ShardedService: consistent-hash routing to shards, admission
// validation (unknown tenant / missing tenant / wrong width), the result
// cache on the data path (cache_hit echo, single solve per key), epoch
// visibility across PublishEpoch (zero stale results, including with a
// publisher racing the submitters — the TSan target for the RCU path),
// per-tenant ledger counters and the merged `shard.<i>.*` gauge view.

#include "tenant/sharded_service.h"

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "boolean/evaluator.h"
#include "boolean/query_log.h"
#include "boolean/schema.h"
#include "common/thread_pool.h"
#include "obs/event_log.h"
#include "obs/wide_event.h"

namespace soc::tenant {
namespace {

QueryLog MakeLog(int width, std::vector<std::vector<int>> queries) {
  QueryLog log(AttributeSchema::Anonymous(width));
  for (const auto& q : queries) log.AddQueryFromIndices(q);
  return log;
}

ShardedServiceOptions SmallOptions(int num_shards = 2) {
  ShardedServiceOptions options;
  options.num_shards = num_shards;
  options.shard.num_workers = 2;
  options.shard.max_queue = 0;  // Unbounded: these tests measure
                                // correctness, not shedding.
  return options;
}

serve::SolveRequest MakeRequest(const std::string& id,
                                const std::string& tenant,
                                const std::string& tuple_bits, int m) {
  serve::SolveRequest request;
  request.id = id;
  request.tenant_id = tenant;
  request.tuple = DynamicBitset::FromString(tuple_bits);
  request.m = m;
  request.solver = "ConsumeAttrCumul";
  return request;
}

TEST(ShardedServiceTest, RoutesEveryTenantToItsRingShard) {
  ShardedService service(SmallOptions(4));
  std::vector<std::future<serve::SolveResponse>> futures;
  for (int t = 0; t < 8; ++t) {
    const std::string tenant = "tenant" + std::to_string(t);
    ASSERT_TRUE(
        service.CreateTenant(tenant, MakeLog(6, {{0, 1}, {1, 2}, {0}})).ok());
    EXPECT_EQ(service.ShardOf(tenant), service.registry().ShardOf(tenant));
    futures.push_back(
        service.Submit(MakeRequest("r" + std::to_string(t), tenant, "011011", 2)));
  }
  service.Drain();
  for (int t = 0; t < 8; ++t) {
    const serve::SolveResponse response = futures[t].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.tenant_id, "tenant" + std::to_string(t));
    EXPECT_EQ(response.epoch, 1);
    EXPECT_FALSE(response.cache_hit);
  }
}

TEST(ShardedServiceTest, RejectsMissingAndUnknownTenants) {
  ShardedService service(SmallOptions());
  ASSERT_TRUE(service.CreateTenant("acme", MakeLog(4, {{0}, {1}})).ok());

  auto missing = service.Submit(MakeRequest("r1", "", "0110", 1));
  auto unknown = service.Submit(MakeRequest("r2", "ghost", "0110", 1));
  service.Drain();
  EXPECT_EQ(missing.get().status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(unknown.get().status.code(), StatusCode::kNotFound);
}

TEST(ShardedServiceTest, RejectsTupleWidthMismatchAtAdmission) {
  ShardedService service(SmallOptions());
  ASSERT_TRUE(service.CreateTenant("acme", MakeLog(6, {{0}, {1}})).ok());

  // Width is checked against the tenant's own catalog, not a global one.
  auto narrow = service.Submit(MakeRequest("r1", "acme", "01", 1));
  service.Drain();
  const serve::SolveResponse response = narrow.get();
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(response.tenant_id, "acme");
}

TEST(ShardedServiceTest, RepeatedRequestIsACacheHitWithTheSameAnswer) {
  ShardedService service(SmallOptions());
  ASSERT_TRUE(
      service.CreateTenant("acme", MakeLog(6, {{0, 1}, {1}, {2, 4}, {1, 4}}))
          .ok());

  auto first = service.Submit(MakeRequest("r1", "acme", "010110", 2));
  service.Drain();
  auto second = service.Submit(MakeRequest("r2", "acme", "010110", 2));
  service.Drain();

  const serve::SolveResponse cold = first.get();
  const serve::SolveResponse warm = second.get();
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.epoch, cold.epoch);
  EXPECT_EQ(warm.solver, cold.solver);
  EXPECT_EQ(warm.solution.selected.ToString(),
            cold.solution.selected.ToString());
  EXPECT_EQ(warm.solution.satisfied_queries, cold.solution.satisfied_queries);

  const serve::MetricsSnapshot metrics = service.Metrics();
  EXPECT_EQ(metrics.counters.at("result_cache.hits"), 1);
  EXPECT_EQ(metrics.counters.at("result_cache.misses"), 1);
}

TEST(ShardedServiceTest, CacheNeverReplaysAnotherSolversAnswer) {
  // ConsumeQueries takes the one-attribute query first and then cannot
  // afford {1, 2}: it satisfies 1 query where the optimum satisfies 3.
  ShardedService service(SmallOptions());
  ASSERT_TRUE(service
                  .CreateTenant("acme",
                                MakeLog(4, {{0}, {1, 2}, {1, 2}, {1, 2}}))
                  .ok());

  serve::SolveRequest greedy = MakeRequest("r1", "acme", "1110", 2);
  greedy.solver = "ConsumeQueries";
  auto first = service.Submit(greedy);
  service.Drain();
  serve::SolveRequest exact = MakeRequest("r2", "acme", "1110", 2);
  exact.solver = "BranchAndBound";
  auto second = service.Submit(exact);
  service.Drain();

  const serve::SolveResponse heuristic = first.get();
  const serve::SolveResponse optimum = second.get();
  ASSERT_TRUE(heuristic.status.ok()) << heuristic.status.ToString();
  ASSERT_TRUE(optimum.status.ok()) << optimum.status.ToString();
  EXPECT_EQ(heuristic.solution.satisfied_queries, 1);
  EXPECT_FALSE(optimum.cache_hit);
  EXPECT_EQ(optimum.solver, "BranchAndBound");
  EXPECT_EQ(optimum.solution.satisfied_queries, 3);
  EXPECT_EQ(optimum.solution.selected.ToString(), "0110");

  const serve::MetricsSnapshot metrics = service.Metrics();
  EXPECT_EQ(metrics.counters.at("result_cache.misses"), 2);
  const auto hits = metrics.counters.find("result_cache.hits");
  EXPECT_TRUE(hits == metrics.counters.end() || hits->second == 0);
}

TEST(ShardedServiceTest, PublishEpochIsVisibleToSubsequentRequests) {
  ShardedService service(SmallOptions());
  const QueryLog log_v1 = MakeLog(4, {{0}, {0}, {1}});
  const QueryLog log_v2 = MakeLog(4, {{3}, {3}, {3}, {2}});
  ASSERT_TRUE(service.CreateTenant("acme", MakeLog(4, {{0}, {0}, {1}})).ok());

  auto before = service.Submit(MakeRequest("r1", "acme", "1111", 1));
  service.Drain();
  auto epoch = service.PublishEpoch("acme", MakeLog(4, {{3}, {3}, {3}, {2}}));
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 2);
  auto after = service.Submit(MakeRequest("r2", "acme", "1111", 1));
  service.Drain();

  const serve::SolveResponse v1 = before.get();
  const serve::SolveResponse v2 = after.get();
  ASSERT_TRUE(v1.status.ok());
  ASSERT_TRUE(v2.status.ok());
  EXPECT_EQ(v1.epoch, 1);
  EXPECT_EQ(v2.epoch, 2);
  // The post-publish answer is optimal against the *new* catalog — the
  // v1 cache entry (same tenant/tuple/m) must not leak across epochs.
  EXPECT_FALSE(v2.cache_hit);
  EXPECT_EQ(v1.solution.satisfied_queries,
            CountSatisfiedQueries(log_v1, v1.solution.selected));
  EXPECT_EQ(v2.solution.satisfied_queries,
            CountSatisfiedQueries(log_v2, v2.solution.selected));
  EXPECT_EQ(v1.solution.selected.ToString(), "1000");
  EXPECT_EQ(v2.solution.selected.ToString(), "0001");
}

// The RCU/TSan target: submitters hammer one tenant while a publisher
// swaps epochs under them. Every response must carry an epoch at least
// as new as the one pinned at submit time, and its objective must
// recount exactly against the log of the epoch it claims — a stale
// cache replay or a torn snapshot read fails one of the two.
TEST(ShardedServiceTest, ConcurrentPublishesNeverYieldStaleResults) {
  ShardedService service(SmallOptions());
  // Epoch e's log: e queries, each {e % 4}; distinguishable objectives.
  const auto log_for_epoch = [](std::int64_t epoch) {
    std::vector<std::vector<int>> queries;
    for (std::int64_t q = 0; q <= epoch; ++q) {
      queries.push_back({static_cast<int>(epoch % 4)});
    }
    return MakeLog(4, queries);
  };
  ASSERT_TRUE(service.CreateTenant("acme", log_for_epoch(1)).ok());

  constexpr int kRequests = 200;
  constexpr int kPublishes = 8;
  std::vector<std::future<serve::SolveResponse>> futures(kRequests);
  std::vector<std::int64_t> pinned(kRequests, 0);
  std::atomic<std::int64_t> last_epoch{1};
  {
    ThreadPool drivers(3);
    for (int s = 0; s < 2; ++s) {
      drivers.Submit([s, &service, &futures, &pinned] {
        for (int i = s; i < kRequests; i += 2) {
          pinned[i] = service.registry().Acquire("acme")->epoch();
          futures[i] = service.Submit(MakeRequest(
              "r" + std::to_string(i), "acme",
              (i % 3 == 0) ? "1111" : (i % 3 == 1) ? "0111" : "1110", 1));
        }
      });
    }
    drivers.Submit([&service, &log_for_epoch, &last_epoch] {
      for (int p = 0; p < kPublishes; ++p) {
        const auto epoch =
            service.PublishEpoch("acme", log_for_epoch(2 + p));
        ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
        last_epoch.store(*epoch);
      }
    });
    drivers.Shutdown();
  }
  service.Drain();

  int hits = 0;
  for (int i = 0; i < kRequests; ++i) {
    const serve::SolveResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ASSERT_GE(response.epoch, pinned[i]) << "went back in time";
    ASSERT_LE(response.epoch, last_epoch.load());
    const QueryLog epoch_log = log_for_epoch(response.epoch);
    EXPECT_EQ(response.solution.satisfied_queries,
              CountSatisfiedQueries(epoch_log, response.solution.selected))
        << "objective does not match the epoch the response claims";
    if (response.cache_hit) ++hits;
  }
  // Repeated tuples per epoch make hits overwhelmingly likely; the point
  // of the assertion is that hits and publishes genuinely interleaved.
  EXPECT_GT(hits, 0);
  EXPECT_EQ(service.registry().epochs_published(), kPublishes);
}

TEST(ShardedServiceTest, MetricsMergeLedgersAndPerShardGauges) {
  ShardedService service(SmallOptions(3));
  ASSERT_TRUE(service.CreateTenant("acme", MakeLog(4, {{0}, {1}})).ok());
  ASSERT_TRUE(service.CreateTenant("globex", MakeLog(5, {{2}})).ok());

  std::vector<std::future<serve::SolveResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.Submit(
        MakeRequest("a" + std::to_string(i), "acme", "1100", 1)));
  }
  for (int i = 0; i < 3; ++i) {
    futures.push_back(service.Submit(
        MakeRequest("g" + std::to_string(i), "globex", "11100", 1)));
  }
  service.Drain();
  for (auto& future : futures) ASSERT_TRUE(future.get().status.ok());

  const serve::MetricsSnapshot metrics = service.Metrics();
  // Per-tenant ledgers: the per-tenant accepted counters partition the
  // service-wide accepted count.
  EXPECT_EQ(metrics.counters.at("tenant.acme.accepted"), 6);
  EXPECT_EQ(metrics.counters.at("tenant.globex.accepted"), 3);
  EXPECT_EQ(metrics.counters.at("accepted"), 9);
  EXPECT_EQ(metrics.counters.at("tenant.acme.completed"), 6);
  // Registry gauges plus one gauge set per shard.
  EXPECT_EQ(metrics.gauges.at("tenants"), 2);
  for (int shard = 0; shard < 3; ++shard) {
    const std::string prefix = "shard." + std::to_string(shard) + ".";
    EXPECT_TRUE(metrics.gauges.count(prefix + "queue_depth")) << prefix;
    EXPECT_TRUE(metrics.gauges.count(prefix + "result_cache.entries"))
        << prefix;
  }
}

TEST(ShardedServiceTest, WideEventsCarryTheTenantLogsOwnFeatures) {
  obs::EventLog events;
  events.set_enabled(true);
  ShardedServiceOptions options = SmallOptions();
  options.shard.event_log = &events;
  ShardedService service(options);
  // Five queries over six attributes, three of them distinct: the
  // collapse ratio is 3/5.
  ASSERT_TRUE(service
                  .CreateTenant("acme", MakeLog(6, {{0, 1}, {1, 2}, {0},
                                                    {0, 1}, {1, 2}}))
                  .ok());
  ASSERT_TRUE(service.CreateTenant("globex", MakeLog(4, {{2}})).ok());

  auto acme = service.Submit(MakeRequest("a", "acme", "011011", 2));
  auto globex = service.Submit(MakeRequest("g", "globex", "0110", 1));
  service.Drain();
  ASSERT_TRUE(acme.get().status.ok());
  ASSERT_TRUE(globex.get().status.ok());

  std::vector<obs::WideEvent> drained;
  events.Drain(&drained);
  ASSERT_EQ(drained.size(), 2u);
  for (const obs::WideEvent& event : drained) {
    if (event.tenant == "acme") {
      EXPECT_EQ(event.num_queries, 5);
      EXPECT_EQ(event.num_attributes, 6);
      EXPECT_DOUBLE_EQ(event.collapse_ratio, 3.0 / 5.0);
    } else {
      EXPECT_EQ(event.tenant, "globex");
      EXPECT_EQ(event.num_queries, 1);
      EXPECT_EQ(event.num_attributes, 4);
      EXPECT_DOUBLE_EQ(event.collapse_ratio, 1.0);
    }
  }
}

TEST(ShardedServiceTest, ZeroResultCacheCapacityTurnsTheCacheOff) {
  ShardedServiceOptions options = SmallOptions(1);
  options.shard.result_cache_capacity = 0;
  ShardedService service(options);
  ASSERT_TRUE(
      service.CreateTenant("acme", MakeLog(6, {{0, 1}, {1}, {2, 4}, {1, 4}}))
          .ok());

  for (int i = 0; i < 3; ++i) {
    const serve::SolveResponse response =
        service.Submit(MakeRequest("r" + std::to_string(i), "acme", "010110", 2))
            .get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_FALSE(response.cache_hit);
  }
  service.Drain();

  const serve::MetricsSnapshot metrics = service.Metrics();
  EXPECT_EQ(metrics.counters.at("solver.ConsumeAttrCumul.completed"), 3);
  EXPECT_EQ(metrics.counters.count("result_cache.hits"), 0u);
  EXPECT_EQ(metrics.counters.count("result_cache.misses"), 0u);
  EXPECT_EQ(metrics.gauges.count("shard.0.result_cache.entries"), 0u);
  EXPECT_EQ(metrics.histograms.count("cache_hit"), 0u);
  EXPECT_EQ(metrics.histograms.count("cache_miss"), 0u);
}

}  // namespace
}  // namespace soc::tenant
