// Behaviour oracle for the serving pipeline: replays a fixed request
// corpus through the single-tenant VisibilityService and through a
// one-shard ShardedService, and compares everything observable — every
// response line, every wide event and the final counter map — against
// checked-in goldens, byte for byte.
//
// The corpus covers every registered solver on several tuples (one of
// them zero-visible, so it takes the bitmap fast path) at m in {0,2,4},
// each request sent twice (the second copy is a result-cache hit on the
// sharded path), plus wrong-width and unknown-solver lines; the sharded
// corpus adds empty-tenant and unknown-tenant lines. One worker, one
// shard, requests submitted sequentially (each response awaited before
// the next send) and no deadlines, so the run is deterministic. Timing
// fields (queue_ms, solve_ms, total_ms, predicted_ms, retry_after_ms,
// ts_ms) are zeroed before encoding.
//
// On a mismatch the actual output is written next to the test binary as
// <golden name>.actual; after an intentional change, review the diff and
// copy that file over tests/golden/<golden name>.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "core/solver_registry.h"
#include "datagen/workload.h"
#include "obs/event_log.h"
#include "obs/wide_event.h"
#include "serve/protocol.h"
#include "serve/visibility_service.h"
#include "tenant/sharded_service.h"

#ifndef SOC_GOLDEN_DIR
#error "SOC_GOLDEN_DIR must point at tests/golden"
#endif

namespace soc {
namespace {

constexpr char kTenant[] = "acme";

QueryLog MakeLog() {
  const AttributeSchema schema = AttributeSchema::Anonymous(12);
  datagen::SyntheticWorkloadOptions wl;
  wl.num_queries = 120;
  wl.seed = 11;
  return datagen::MakeSyntheticWorkload(schema, wl);
}

DynamicBitset MakeTuple(int width, unsigned bits) {
  DynamicBitset tuple(width);
  for (int a = 0; a < width; ++a) {
    if (bits & (1u << a)) tuple.Set(a);
  }
  return tuple;
}

// The request corpus, in send order. `tenant` is stamped on every line
// except the deliberately tenant-less ones.
std::vector<serve::SolveRequest> MakeCorpus(int width, bool sharded) {
  std::vector<serve::SolveRequest> corpus;
  const auto add = [&](DynamicBitset tuple, int m, const std::string& solver,
                       const std::string& tenant) {
    serve::SolveRequest request;
    char id[16];
    std::snprintf(id, sizeof(id), "r%03zu", corpus.size());
    request.id = id;
    request.tuple = std::move(tuple);
    request.m = m;
    request.solver = solver;
    request.tenant_id = tenant;
    corpus.push_back(std::move(request));
  };
  const std::string tenant = sharded ? kTenant : "";
  // 0x000 satisfies no query: the zero-visible fast path.
  const unsigned kTuples[] = {0xEDBu, 0xFFFu, 0x000u};
  for (const std::string& solver : RegisteredSolverNames()) {
    for (const unsigned bits : kTuples) {
      for (const int m : {0, 2, 4}) {
        for (int copy = 0; copy < 2; ++copy) {
          add(MakeTuple(width, bits), m, solver, tenant);
        }
      }
    }
  }
  add(MakeTuple(width + 1, 0xEDBu), 3, "Fallback", tenant);
  add(MakeTuple(width, 0xEDBu), 3, "NoSuchSolver", tenant);
  if (sharded) {
    add(MakeTuple(width, 0xEDBu), 3, "Fallback", "");
    add(MakeTuple(width, 0xEDBu), 3, "Fallback", "no-such-tenant");
  }
  return corpus;
}

// Sends the corpus one request at a time through `submit`, then renders
// responses, drained wide events (sorted by id) and the counter map.
template <typename Service>
std::string Replay(Service& service, obs::EventLog& events,
                   const std::vector<serve::SolveRequest>& corpus) {
  std::ostringstream out;
  for (const serve::SolveRequest& request : corpus) {
    serve::SolveResponse response = service.Submit(request).get();
    response.queue_ms = 0;
    response.solve_ms = 0;
    response.retry_after_ms = 0;
    out << serve::ResponseToJson(response).ToString() << "\n";
  }
  service.Drain();

  std::vector<obs::WideEvent> drained;
  events.Drain(&drained);
  std::stable_sort(drained.begin(), drained.end(),
                   [](const obs::WideEvent& a, const obs::WideEvent& b) {
                     return a.id < b.id;
                   });
  for (obs::WideEvent& event : drained) {
    event.ts_ms = 0;
    event.queue_ms = 0;
    event.solve_ms = 0;
    event.total_ms = 0;
    event.predicted_ms = 0;
    event.retry_after_ms = 0;
    out << obs::WideEventToJsonLine(event) << "\n";
  }

  JsonValue counters = JsonValue::Object();
  for (const auto& [name, value] : service.Metrics().counters) {
    counters.Set(name, JsonValue::Int(value));
  }
  out << JsonValue::Object().Set("counters", std::move(counters)).ToString()
      << "\n";
  return out.str();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

void ExpectMatchesGolden(const std::string& actual, const std::string& name) {
  const std::string expected =
      ReadFile(std::string(SOC_GOLDEN_DIR) + "/" + name);
  if (actual == expected) return;
  const std::string actual_path = name + ".actual";
  std::ofstream(actual_path, std::ios::binary) << actual;
  ASSERT_FALSE(expected.empty())
      << "missing golden " << name << "; output written to " << actual_path;
  // Report the first differing line rather than two 100 KB strings.
  std::istringstream a(actual), e(expected);
  std::string a_line, e_line;
  int line = 1;
  while (true) {
    const bool has_a = static_cast<bool>(std::getline(a, a_line));
    const bool has_e = static_cast<bool>(std::getline(e, e_line));
    if (!has_a && !has_e) break;
    if (!has_a || !has_e || a_line != e_line) {
      ADD_FAILURE() << name << " differs at line " << line << "\n expected: "
                    << (has_e ? e_line : "<eof>")
                    << "\n actual:   " << (has_a ? a_line : "<eof>")
                    << "\n full output written to " << actual_path;
      return;
    }
    ++line;
  }
}

TEST(ServeReplayTest, SingleTenantMatchesGolden) {
  const QueryLog log = MakeLog();
  obs::EventLog events;
  events.set_enabled(true);
  serve::VisibilityServiceOptions options;
  options.num_workers = 1;
  options.event_log = &events;
  serve::VisibilityService service(log, options);
  const std::string actual =
      Replay(service, events, MakeCorpus(log.num_attributes(), false));
  ExpectMatchesGolden(actual, "serve_replay_single.jsonl");
}

TEST(ServeReplayTest, ShardedMatchesGolden) {
  const QueryLog log = MakeLog();
  obs::EventLog events;
  events.set_enabled(true);
  tenant::ShardedServiceOptions options;
  options.num_shards = 1;
  options.shard.num_workers = 1;
  options.shard.event_log = &events;
  tenant::ShardedService service(options);
  ASSERT_TRUE(service.CreateTenant(kTenant, log).ok());
  const std::string actual =
      Replay(service, events, MakeCorpus(log.num_attributes(), true));
  ExpectMatchesGolden(actual, "serve_replay_sharded.jsonl");
}

}  // namespace
}  // namespace soc
