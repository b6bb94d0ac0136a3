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
// A third corpus, the overload corpus, pins the paths where a request does
// not run the solver it named: queue_full and predicted_deadline_miss
// sheds at Submit, an expired request rejected under reject_expired or
// rerouted to Fallback at pickup, a degradation-ladder downgrade and a
// circuit-breaker reroute, plus a predicted shed made against the
// service's default deadline. Each scenario runs on a fresh one-worker,
// one-shard service whose worker_hook holds the worker on the first
// request while the rest of the scenario is sent, so queue occupancy and
// the cost model's backlog are the same on every run. The service's
// cost model still runs on its priors while the held request is
// outstanding, so the shed decisions and their messages are exact.
//
// On a mismatch the actual output is written next to the test binary as
// <golden name>.actual; after an intentional change, review the diff and
// copy that file over tests/golden/<golden name>.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json_writer.h"
#include "common/logging.h"
#include "core/solver_registry.h"
#include "datagen/workload.h"
#include "obs/event_log.h"
#include "obs/trace_recorder.h"
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

std::string RenderResponse(serve::SolveResponse response) {
  response.queue_ms = 0;
  response.solve_ms = 0;
  response.retry_after_ms = 0;
  return serve::ResponseToJson(response).ToString() + "\n";
}

// Every recorded wide event, sorted by id.
std::vector<obs::WideEvent> DrainSorted(obs::EventLog& events) {
  std::vector<obs::WideEvent> drained;
  events.Drain(&drained);
  std::stable_sort(drained.begin(), drained.end(),
                   [](const obs::WideEvent& a, const obs::WideEvent& b) {
                     return a.id < b.id;
                   });
  return drained;
}

// Wide events (timing fields zeroed), then the counter map.
std::string RenderEventsAndCounters(std::vector<obs::WideEvent> events,
                                    const serve::MetricsSnapshot& metrics) {
  std::ostringstream out;
  for (obs::WideEvent& event : events) {
    event.ts_ms = 0;
    event.queue_ms = 0;
    event.solve_ms = 0;
    event.total_ms = 0;
    event.predicted_ms = 0;
    event.retry_after_ms = 0;
    out << obs::WideEventToJsonLine(event) << "\n";
  }

  JsonValue counters = JsonValue::Object();
  for (const auto& [name, value] : metrics.counters) {
    counters.Set(name, JsonValue::Int(value));
  }
  out << JsonValue::Object().Set("counters", std::move(counters)).ToString()
      << "\n";
  return out.str();
}

// Sends the corpus one request at a time through `submit`, then renders
// responses, drained wide events (sorted by id) and the counter map.
template <typename Service>
std::string Replay(Service& service, obs::EventLog& events,
                   const std::vector<serve::SolveRequest>& corpus) {
  std::string out;
  for (const serve::SolveRequest& request : corpus) {
    out += RenderResponse(service.Submit(request).get());
  }
  service.Drain();
  return out + RenderEventsAndCounters(DrainSorted(events), service.Metrics());
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

// Holds the worker on the first request that reaches the solver, until
// Open(); every later request passes straight through.
class WorkerGate {
 public:
  Status Enter() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_ || entered_ > 1; });
    return Status::OK();
  }
  void WaitHeld() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return entered_ > 0; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool open_ = false;
};

// One overload scenario: a fresh one-shard service built from `options`
// (one worker, events on), whose first request is held in the worker
// while the others are sent in order. With `expire_before_release`, the
// held worker is released only after every deadline in the scenario has
// passed.
struct OverloadScenario {
  std::string name;
  tenant::TenantShardOptions options;
  std::vector<serve::SolveRequest> requests;
  bool expire_before_release = false;
  // Optional fault injection, consulted after the gate.
  std::function<Status(const serve::WorkerHookContext&)> fault;
};

struct OverloadRun {
  std::vector<serve::SolveResponse> responses;  // In send order.
  std::vector<obs::WideEvent> events;           // Sorted by id.
  serve::MetricsSnapshot metrics;
};

OverloadRun RunOverloadScenario(const QueryLog& log,
                                const OverloadScenario& scenario) {
  obs::EventLog events;
  events.set_enabled(true);
  WorkerGate gate;
  tenant::ShardedServiceOptions options;
  options.num_shards = 1;
  options.shard = scenario.options;
  options.shard.num_workers = 1;
  options.shard.event_log = &events;
  // Solves here take well under a millisecond; the watchdog must never
  // race them.
  options.shard.watchdog.min_wall_ms = 600000;
  const auto fault = scenario.fault;
  options.shard.worker_hook = [&gate,
                               fault](const serve::WorkerHookContext& hook) {
    Status status = gate.Enter();
    if (status.ok() && fault) status = fault(hook);
    return status;
  };
  tenant::ShardedService service(options);
  SOC_CHECK(service.CreateTenant(kTenant, log).ok());

  std::vector<std::future<serve::SolveResponse>> futures;
  for (std::size_t i = 0; i < scenario.requests.size(); ++i) {
    futures.push_back(service.Submit(scenario.requests[i]));
    if (i == 0) gate.WaitHeld();
  }
  if (scenario.expire_before_release) {
    double longest_ms = 0;
    for (const serve::SolveRequest& request : scenario.requests) {
      longest_ms = std::max(longest_ms, request.deadline_ms);
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int>(longest_ms) + 20));
  }
  gate.Open();

  OverloadRun run;
  for (auto& future : futures) run.responses.push_back(future.get());
  service.Drain();
  run.events = DrainSorted(events);
  run.metrics = service.Metrics();
  return run;
}

serve::SolveRequest OverloadRequest(const std::string& id, unsigned bits,
                                    int m, const std::string& solver,
                                    double deadline_ms) {
  serve::SolveRequest request;
  request.id = id;
  request.tuple = MakeTuple(12, bits);
  request.m = m;
  request.solver = solver;
  request.deadline_ms = deadline_ms;
  request.tenant_id = kTenant;
  return request;
}

// The held request in every scenario is a BruteForce solve at m=4, whose
// prior prediction (about 1.3 ms on this log) is the whole backlog while
// it is held: a later request with a 0.5 ms deadline is predicted to
// miss it, one with a 5 ms deadline is admitted.
std::vector<OverloadScenario> MakeOverloadScenarios() {
  std::vector<OverloadScenario> scenarios;
  const auto held = [](const std::string& id) {
    return OverloadRequest(id, 0xEDBu, 4, "BruteForce", 0);
  };

  // Degrade mode, max_queue 4. The deadline-bearing request is the EDF
  // head after the release, so it is picked up first, at occupancy 3/4:
  // it is late (rerouted to Fallback) and its pickup lifts the ladder
  // (EWMA alpha 1, so each sample is the smoothed value) to level 1. The
  // next pickup, at occupancy 2/4, keeps level 1 and downgrades its exact
  // solver; the one after, at 1/4, drops the ladder back to level 0.
  {
    OverloadScenario scenario;
    scenario.name = "degrade";
    scenario.options.max_queue = 4;
    scenario.options.ladder.ewma_alpha = 1.0;
    scenario.expire_before_release = true;
    scenario.requests = {
        held("d000"),
        OverloadRequest("d001", 0xFFFu, 3, "BranchAndBound", 0.5),
        OverloadRequest("d002", 0xFFFu, 2, "BranchAndBound", 5),
        OverloadRequest("d003", 0xEDBu, 3, "BruteForce", 0),
        OverloadRequest("d004", 0xEDBu, 2, "ILP", 0),
        OverloadRequest("d005", 0xFFFu, 4, "ConsumeAttr", 0),
        OverloadRequest("d006", 0xEDBu, 2, "ConsumeQueries", 0),
    };
    scenarios.push_back(std::move(scenario));
  }

  // reject_expired: the whole predicted completion (wait + solve) must
  // fit the deadline, and a request already expired at pickup is shed.
  {
    OverloadScenario scenario;
    scenario.name = "reject_expired";
    scenario.options.reject_expired = true;
    scenario.expire_before_release = true;
    scenario.requests = {
        held("x000"),
        OverloadRequest("x001", 0xFFFu, 3, "BranchAndBound", 0.5),
        OverloadRequest("x002", 0xFFFu, 2, "ConsumeAttrCumul", 5),
        OverloadRequest("x003", 0xEDBu, 2, "Fallback", 0),
    };
    scenarios.push_back(std::move(scenario));
  }

  // Breaker: BranchAndBound fails failure_threshold (2) times in a row,
  // tripping its breaker; the third BranchAndBound request is rerouted to
  // Fallback without touching the tier.
  {
    OverloadScenario scenario;
    scenario.name = "breaker";
    scenario.options.breaker.failure_threshold = 2;
    scenario.options.breaker.open_ms = 600000;  // Stays open throughout.
    scenario.fault = [](const serve::WorkerHookContext& hook) {
      if (hook.solver == "BranchAndBound") {
        return InternalError("injected BranchAndBound fault");
      }
      return Status::OK();
    };
    scenario.requests = {
        held("b000"),
        OverloadRequest("b001", 0xEDBu, 2, "BranchAndBound", 0),
        OverloadRequest("b002", 0xEDBu, 3, "BranchAndBound", 0),
        OverloadRequest("b003", 0xFFFu, 3, "BranchAndBound", 0),
        OverloadRequest("b004", 0xFFFu, 2, "ConsumeAttr", 0),
    };
    scenarios.push_back(std::move(scenario));
  }

  // A default deadline: the request without a deadline_ms of its own is
  // judged against the service's 0.5 ms default and shed.
  {
    OverloadScenario scenario;
    scenario.name = "default_deadline";
    scenario.options.default_deadline_ms = 0.5;
    serve::SolveRequest first = held("z000");
    first.deadline_ms = 600000;  // Explicit, so the default cannot expire it.
    scenario.requests = {
        std::move(first),
        OverloadRequest("z001", 0xFFFu, 3, "BranchAndBound", 0),
    };
    scenarios.push_back(std::move(scenario));
  }
  return scenarios;
}

TEST(ServeReplayTest, OverloadMatchesGolden) {
  const QueryLog log = MakeLog();
  std::string actual;
  for (const OverloadScenario& scenario : MakeOverloadScenarios()) {
    OverloadRun run = RunOverloadScenario(log, scenario);
    actual += JsonValue::Object()
                  .Set("scenario", JsonValue::String(scenario.name))
                  .ToString() +
              "\n";
    for (serve::SolveResponse& response : run.responses) {
      actual += RenderResponse(std::move(response));
    }
    actual += RenderEventsAndCounters(std::move(run.events), run.metrics);
  }
  ExpectMatchesGolden(actual, "serve_replay_overload.jsonl");
}

// The golden zeroes predicted_ms; this pins that a request shed at Submit
// records the deadline it was judged against (the service default here)
// and the solve time the cost model predicted for it, and that its shed
// trace instant reports the predicted completion the shed was made on.
TEST(ServeReplayTest, SubmitShedRecordsEffectiveDeadlineAndPrediction) {
  const QueryLog log = MakeLog();
  for (OverloadScenario scenario : MakeOverloadScenarios()) {
    if (scenario.name != "default_deadline") continue;
    obs::TraceRecorder recorder;
    recorder.set_enabled(true);
    scenario.options.trace_recorder = &recorder;
    const OverloadRun run = RunOverloadScenario(log, scenario);
    ASSERT_EQ(run.events.size(), 2u);
    const obs::WideEvent& shed = run.events[1];
    EXPECT_EQ(shed.shed_reason, serve::kShedReasonPredicted);
    EXPECT_EQ(shed.deadline_ms, 0.5);
    EXPECT_GT(shed.predicted_ms, 0);

    double completion_ms = 0;
    ASSERT_EQ(std::sscanf(run.responses[1].status.message().c_str(),
                          "predicted completion %lfms", &completion_ms),
              1);
    EXPECT_GT(completion_ms, 0.5);
    const std::string trace = recorder.ToChromeTraceJson();
    const std::size_t instant = trace.find("\"name\":\"shed\"");
    ASSERT_NE(instant, std::string::npos);
    const std::string line =
        trace.substr(instant, trace.find('\n', instant) - instant);
    const std::size_t key = line.find("\"predicted_ms\":");
    ASSERT_NE(key, std::string::npos);
    EXPECT_NEAR(std::strtod(line.c_str() + key + 15, nullptr), completion_ms,
                1e-6);
    EXPECT_NE(line.find("\"deadline_ms\":0.5"), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace soc
