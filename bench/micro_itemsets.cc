// Microbenchmarks of the itemset-mining engines on the workload shape that
// matters for SOC: dense complemented query logs.

#include <benchmark/benchmark.h>

#include "boolean/query_log.h"
#include "datagen/workload.h"
#include "itemsets/maximal_dfs.h"
#include "itemsets/random_walk.h"
#include "itemsets/transaction_db.h"

namespace soc {
namespace {

itemsets::TransactionDatabase MakeComplementedLog(int num_queries,
                                                  int num_attrs) {
  const AttributeSchema schema = AttributeSchema::Anonymous(num_attrs);
  datagen::SyntheticWorkloadOptions options;
  options.num_queries = num_queries;
  const QueryLog log = datagen::MakeSyntheticWorkload(schema, options);
  return itemsets::TransactionDatabase::FromComplementedQueryLog(log);
}

void BM_TwoPhaseRandomWalk(benchmark::State& state) {
  const auto db = MakeComplementedLog(static_cast<int>(state.range(0)), 32);
  const int min_support = std::max(1, db.num_transactions() / 20);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        itemsets::TwoPhaseRandomWalk(db, min_support, rng));
  }
}
BENCHMARK(BM_TwoPhaseRandomWalk)->Arg(185)->Arg(2000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void BM_RandomWalkMining(benchmark::State& state) {
  const auto db = MakeComplementedLog(static_cast<int>(state.range(0)), 32);
  const int min_support = std::max(1, db.num_transactions() / 20);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    itemsets::RandomWalkOptions options;
    options.seed = ++seed;
    benchmark::DoNotOptimize(
        itemsets::MineMaximalItemsetsRandomWalk(db, min_support, options));
  }
}
BENCHMARK(BM_RandomWalkMining)->Arg(185)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

// Args: |Q|, attributes, min support.
void BM_MaximalDfsMining(benchmark::State& state) {
  const auto db = MakeComplementedLog(static_cast<int>(state.range(0)),
                                      static_cast<int>(state.range(1)));
  const int min_support = static_cast<int>(state.range(2));
  std::size_t maximal = 0;
  for (auto _ : state) {
    auto result = itemsets::MineMaximalItemsetsDfs(db, min_support);
    maximal = result.ok() ? result->size() : 0;
    benchmark::DoNotOptimize(result);
  }
  state.counters["maximal"] = static_cast<double>(maximal);
}
// Small dense logs: exhaustive maximal mining on dense data explodes (the
// very argument of Sec IV.C), at a threshold of |Q|/10.
BENCHMARK(BM_MaximalDfsMining)->Args({30, 24, 3})->Args({60, 24, 6})
    ->Unit(benchmark::kMillisecond);
// The serving shape: an MFI tenant of perfbench's multitenant_zipf (M = 15,
// 264 queries) at a greedy-seeded threshold.
BENCHMARK(BM_MaximalDfsMining)->Args({264, 15, 20})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace soc

BENCHMARK_MAIN();
