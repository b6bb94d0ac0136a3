// The benchmark's workloads, generated from (name, seed) alone.
//
// A workload is the program's inputs — query logs, tenant logs and the
// epochs later published for them, and a deck of wire-format request
// lines — plus the load shape the driver plays them with (closed-loop
// clients and a publish schedule). The
// program only ever receives the generated inputs; why each workload
// exists, and which layers it loads, is recorded in BENCHMARK.json and
// perfbench/README.md.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "boolean/query_log.h"
#include "common/bitset.h"

namespace perfbench {

// Service workers on every workload. Closed-loop clients plus workers stay
// <= 4, the host's cores.
inline constexpr int kWorkers = 2;

// One request of the deck: the JSONL line the program parses, plus what
// the generator put into it (for the correctness checks).
struct DeckEntry {
  std::string line;
  int tenant = -1;  // Index into Workload::tenants; -1 when single-tenant.
  soc::DynamicBitset tuple;
  int m = 0;
  std::string solver;
  double deadline_ms = 0;  // 0 = none.
};

struct TenantSpec {
  std::string id;
  // logs[0] is created at set-up (epoch 1); the k-th publish for this
  // tenant installs logs[k % logs.size()], never the log already live.
  std::vector<soc::QueryLog> logs;
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;

  bool multitenant = false;
  soc::QueryLog log;  // Single-tenant workloads.
  std::vector<TenantSpec> tenants;

  std::vector<DeckEntry> deck;

  // Multi-tenant: kWorkers split evenly over this many shards.
  int shards = 1;
  // Closed-loop client threads; each polls for its response, so each
  // keeps a core busy.
  int clients = kWorkers;
  bool events_and_slo = false;

  // Goodput limit for requests without a deadline; requests with one
  // use their deadline.
  double limit_ms = 0;

  // Multi-tenant writes: during the timed phases, a PublishEpoch for
  // tenant (k mod tenants) after every publish_every requests sent.
  int publish_every = 0;

  // The first deck entries, played through the service before timing
  // starts (part of set-up: MFI cache fill, bitmap build, cost-model
  // warmup); the timed phases continue from there.
  int warmup_requests = 0;
};

// Builds the named workload; an unknown name is an error (empty name in
// the result).
Workload MakeWorkload(const std::string& name, std::uint64_t seed);

// FNV-1a digest (hex) of every input the workload hands the program and
// of its load schedule: equal seeds give equal digests.
std::string StreamDigest(const Workload& workload);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
