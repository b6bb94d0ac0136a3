#include "workloads.h"

#include <cstdio>

#include "boolean/schema.h"
#include "boolean/table.h"
#include "common/json_writer.h"
#include "common/random.h"
#include "datagen/car_dataset.h"
#include "datagen/workload.h"

namespace perfbench {
namespace {

using soc::DynamicBitset;
using soc::JsonValue;
using soc::QueryLog;
using soc::Rng;

std::string RequestLine(const DeckEntry& entry, const std::string& tenant_id) {
  // No "id": the parser then uses the line number the driver passes,
  // which is unique per send.
  JsonValue line = JsonValue::Object();
  if (!tenant_id.empty()) line.Set("tenant_id", JsonValue::String(tenant_id));
  line.Set("tuple", JsonValue::String(entry.tuple.ToString()))
      .Set("m", JsonValue::Int(entry.m))
      .Set("solver", JsonValue::String(entry.solver));
  if (entry.deadline_ms > 0) {
    line.Set("deadline_ms", JsonValue::Number(entry.deadline_ms));
  }
  return line.ToString();
}

DynamicBitset RandomTuple(Rng& rng, int width, double density) {
  DynamicBitset tuple(static_cast<std::size_t>(width));
  for (int b = 0; b < width; ++b) {
    if (rng.NextBernoulli(density)) tuple.Set(static_cast<std::size_t>(b));
  }
  return tuple;
}

void MakeGreedyBiglog(Workload* w) {
  Rng rng(w->seed * 0x9E3779B97F4A7C15ull + 11);
  soc::datagen::SyntheticWorkloadOptions options;
  options.num_queries = 20000;
  options.seed = 37;  // The log of BENCH_kernels.json's request workload.
  w->log = soc::datagen::MakeSyntheticWorkload(
      soc::AttributeSchema::Anonymous(64), options);
  // ConsumeQueries stays out: on this log it costs ~79 ms a solve,
  // ~220x ConsumeAttr, and would set the workload's throughput alone.
  const std::vector<std::string> solvers = {"ConsumeAttr",
                                            "ConsumeAttrCumul"};
  for (int i = 0; i < 4096; ++i) {
    DeckEntry entry;
    entry.tuple = RandomTuple(rng, 64, 0.5);
    entry.m = rng.NextInt(4, 12);
    entry.solver = solvers[rng.NextUint64(solvers.size())];
    entry.deadline_ms = 10;  // ~20x the median solve.
    entry.line = RequestLine(entry, "");
    w->deck.push_back(std::move(entry));
  }
  // Solves take 0.3-1 ms, the size of the host's thread stalls, and in an
  // open loop every request arriving during a stall waits it out: the
  // open-loop p99 swung 2.0-7.5 ms over ten runs (quartile spread 0.88 of
  // the median). The closed loop exposes only the requests in service.
  w->warmup_requests = 256;
}

// The paper's Fig 6/7 setting: the real-like 185-query log over the
// 15,211-car dataset (M = 32). The deck is every (car, m, solver) of a
// fixed sample of to-be-advertised cars — the paper averages over one
// random selection — with m in [1, 7]. The first entries, in this
// canonical order, are what set-up plays; the seed shuffles the rest. So
// every seed does the same work in a different order: per-solve costs
// here are heavy-tailed (one ILP solve takes from 2 to 840 ms), and a
// seeded car sample would make throughput a property of the seed, not of
// the program.
void MakeExactPaper(Workload* w) {
  Rng rng(w->seed * 0x9E3779B97F4A7C15ull + 13);
  const soc::BooleanTable cars = soc::datagen::GenerateCarDataset();
  w->log = soc::datagen::MakeRealLikeWorkload(cars);
  constexpr int kCars = 24;
  constexpr int kWarmup = 35;
  for (const int row :
       soc::datagen::PickAdvertisedTuples(cars, kCars, /*seed=*/1)) {
    for (int m = 1; m <= 7; ++m) {
      for (const char* solver : {"BranchAndBound", "ILP", "MaxFreqItemSets",
                                 "BruteForce", "ConsumeQueries"}) {
        DeckEntry entry;
        entry.tuple = cars.row(row);
        entry.m = m;
        entry.solver = solver;
        entry.line = RequestLine(entry, "");
        w->deck.push_back(std::move(entry));
      }
    }
  }
  std::vector<DeckEntry> rest(w->deck.begin() + kWarmup, w->deck.end());
  rng.Shuffle(rest);
  std::move(rest.begin(), rest.end(), w->deck.begin() + kWarmup);
  w->warmup_requests = kWarmup;
  w->limit_ms = 250;
}

// The tenants — their logs, published versions and tuple pools — are
// fixed; the seed draws the request stream over them. A seeded catalog
// would make throughput a property of the seed: the result cache and the
// per-miss solve cost both depend on the tenants' logs and tuples.
//
// With `mixed_solvers` false (multitenant_zipf) every tenant's requests
// name one solver, the t-th tenant's the (t mod 5)-th of the mix. With it
// true (multitenant_mixed_solvers) each request draws its solver, so
// requests for greedy and exact solvers meet on one result-cache key: the
// program's key has no solver, and such a run fails its checks (README.md,
// "Known program defects").
void MakeMultitenantZipf(Workload* w, bool mixed_solvers) {
  Rng catalog_rng(17);
  Rng rng(w->seed * 0x9E3779B97F4A7C15ull + 17);
  w->multitenant = true;
  constexpr int kTenants = 16;
  constexpr int kPool = 10;
  constexpr int kVersions = 4;
  std::vector<std::vector<DynamicBitset>> pools;
  for (int t = 0; t < kTenants; ++t) {
    TenantSpec tenant;
    tenant.id = "tenant" + std::to_string(t);
    const int width = 12 + t % 5;
    const soc::AttributeSchema schema = soc::AttributeSchema::Anonymous(width);
    for (int v = 0; v < kVersions; ++v) {
      soc::datagen::SyntheticWorkloadOptions options;
      options.num_queries = 200 + 8 * t;
      options.seed = 1000 + static_cast<std::uint64_t>(t * 16 + v);
      tenant.logs.push_back(
          soc::datagen::MakeSyntheticWorkload(schema, options));
    }
    std::vector<DynamicBitset> pool;
    for (int p = 0; p < kPool; ++p) {
      pool.push_back(RandomTuple(catalog_rng, width, 0.55));
    }
    pools.push_back(std::move(pool));
    w->tenants.push_back(std::move(tenant));
  }
  const soc::ZipfDistribution zipf(kTenants, 1.0);
  // The mixed variant names the paper's random-walk MaxFreqItemSets, which
  // the program does not claim optimal and which, on one of these logs,
  // answers 16 where the optimum is 17; multitenant_zipf names the exact
  // DFS engine, so every exact answer it replays can be held to the
  // optimum. exact_paper runs the random walk.
  const std::vector<std::string> solvers = {
      "Fallback", "ConsumeAttrCumul", "BranchAndBound",
      mixed_solvers ? "MaxFreqItemSets" : "MaxFreqItemSets-dfs",
      "ConsumeQueries"};
  const double deadlines[] = {0, 100, 25};
  // The warmup entries, which set-up plays, are the same for every seed:
  // drawn from the seed, their solves made setup_s a property of the seed
  // (medians 0.28-0.47 s over ten seeds).
  constexpr int kWarmup = 512;
  Rng warmup_rng(19);
  for (int i = 0; i < 16384; ++i) {
    Rng& draw = i < kWarmup ? warmup_rng : rng;
    DeckEntry entry;
    entry.tenant = zipf.Sample(draw);
    const auto& pool = pools[static_cast<std::size_t>(entry.tenant)];
    entry.tuple = pool[draw.NextUint64(pool.size())];
    entry.m = draw.NextInt(1, 4);
    entry.solver =
        mixed_solvers
            ? solvers[draw.NextUint64(solvers.size())]
            : solvers[static_cast<std::size_t>(entry.tenant) % solvers.size()];
    entry.deadline_ms = deadlines[draw.NextUint64(3)];
    entry.line = RequestLine(
        entry, w->tenants[static_cast<std::size_t>(entry.tenant)].id);
    w->deck.push_back(std::move(entry));
  }
  w->shards = 2;
  // One client, so that two cores stay free for the event pump and the
  // publisher. With a client per worker every core polled or solved, and
  // latency_p50_ms spread 0.12-0.15 of its median over sets of ten 50 s
  // runs; with one client, 0.07-0.09 over sets of five and six.
  w->clients = 1;
  w->events_and_slo = true;
  // With an open loop at half capacity beside the closed loop, the
  // open-loop p50 (about 0.1 ms, a worker's wake-up) spread 0.53 and the
  // p99 0.38 of their medians over ten runs.
  w->limit_ms = 100;
  w->publish_every = 500;
  w->warmup_requests = kWarmup;
}

void Fnv(const std::string& bytes, std::uint64_t* h) {
  for (const unsigned char c : bytes) {
    *h ^= c;
    *h *= 0x100000001B3ull;
  }
  *h ^= 0xFF;  // Field separator.
  *h *= 0x100000001B3ull;
}

}  // namespace

Workload MakeWorkload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.seed = seed;
  if (name == "greedy_biglog") {
    MakeGreedyBiglog(&w);
  } else if (name == "exact_paper") {
    MakeExactPaper(&w);
  } else if (name == "multitenant_zipf") {
    MakeMultitenantZipf(&w, /*mixed_solvers=*/false);
  } else if (name == "multitenant_mixed_solvers") {
    MakeMultitenantZipf(&w, /*mixed_solvers=*/true);
  } else {
    return w;
  }
  w.name = name;
  return w;
}

std::string StreamDigest(const Workload& w) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  Fnv(w.name, &h);
  Fnv(std::to_string(w.seed), &h);
  Fnv(w.log.ToCsv(), &h);
  for (const TenantSpec& tenant : w.tenants) {
    Fnv(tenant.id, &h);
    for (const QueryLog& log : tenant.logs) Fnv(log.ToCsv(), &h);
  }
  for (const DeckEntry& entry : w.deck) Fnv(entry.line, &h);
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "%d/%d/%d/%.17g/%d/%d", kWorkers,
                w.clients, w.shards, w.limit_ms, w.publish_every,
                w.warmup_requests);
  Fnv(buffer, &h);
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(h));
  return buffer;
}

}  // namespace perfbench
