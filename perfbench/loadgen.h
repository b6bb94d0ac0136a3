// Load generation: plays a workload's request deck through the program's
// public serving path — serve::ParseSolveRequestLine, then Submit on a
// VisibilityService or tenant::ShardedService, then serve::ResponseToJson
// — the way socvis_serve does, in a closed loop: one client per worker,
// each sending its next request when the previous one's response is in.
// Latency runs from the send to when this code saw the response.
//
// With a SpanLog attached, each request also records spans around those
// calls (see SpanLog); without one, no span code runs.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "serve/visibility_service.h"
#include "tenant/sharded_service.h"
#include "workloads.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point origin, Clock::time_point t);

// One span: a timed call made by this benchmark into one of the program's
// modules, named <module>.<function>. Spans of one request share
// `request`; `parent` is the id of the enclosing span (0 for a root).
struct Span {
  int name = 0;  // Index into SpanLog::names().
  std::int64_t id = 0;
  std::int64_t parent = 0;
  std::int64_t request = 0;
  double start_us = 0;  // Since the SpanLog's origin.
  double end_us = 0;
};

// In-memory span store, written out once when the run ends. Threads add
// spans under a mutex; the serving replay adds a handful per request.
class SpanLog {
 public:
  SpanLog();

  // Interns a span name; call before the timed work starts.
  int Name(const std::string& name);
  const std::vector<std::string>& names() const { return names_; }

  std::int64_t NewId() { return next_id_.fetch_add(1) + 1; }
  double NowUs() const;
  void Add(Span span);

  std::vector<Span> Take();

 private:
  const Clock::time_point origin_;
  std::vector<std::string> names_;
  std::atomic<std::int64_t> next_id_{0};
  soc::Mutex mutex_;
  std::vector<Span> spans_;
};

// Latest epoch published per tenant, the logs behind every epoch, and the
// publish-call timings.
class Publisher {
 public:
  Publisher(const Workload& workload, soc::tenant::ShardedService* service);

  // Publishes the next log for tenant (k mod tenants); returns the call's
  // wall time in ms. A failed publish is returned as a status.
  soc::StatusOr<double> PublishNext();
  std::int64_t LatestEpoch(int tenant) const;
  // The log a tenant's epoch serves; nullptr if that epoch is unknown.
  const soc::QueryLog* LogOf(int tenant, std::int64_t epoch) const;
  std::vector<double> publish_ms() const;
  int publishes() const;

 private:
  const Workload& workload_;
  soc::tenant::ShardedService* const service_;
  std::vector<std::atomic<std::int64_t>> latest_;
  mutable soc::Mutex mutex_;
  int count_ = 0;
  std::vector<int> per_tenant_;
  std::map<std::pair<int, std::int64_t>, int> version_of_;
  std::vector<double> publish_ms_;
};

// Shared request sequence across phases: numbers sends (the wire id) and
// walks the deck.
struct SendCounter {
  std::atomic<std::int64_t> next{0};
};

// Publishes the next epoch (Publisher::PublishNext) each time another
// `every` requests have been sent, from a thread of its own, until Stop():
// writes land beside the reads without delaying the load generator, and
// at fixed points of the request stream, so the result cache's hit rate
// does not depend on how fast the program serves.
class PublishSchedule {
 public:
  // A null publisher or every <= 0 schedules nothing.
  PublishSchedule(Publisher* publisher, const SendCounter* sends, int every,
                  SpanLog* spans);
  ~PublishSchedule();
  PublishSchedule(const PublishSchedule&) = delete;
  PublishSchedule& operator=(const PublishSchedule&) = delete;

  // Stops and joins the thread; returns the failed publishes' messages.
  std::vector<std::string> Stop();

 private:
  std::atomic<bool> stop_{false};
  soc::Mutex mutex_;
  std::vector<std::string> errors_;
  soc::ThreadPool pool_{1};  // Last: the thread dies before the state above.
};

// The program under test: exactly one of the two services.
struct Target {
  soc::serve::VisibilityService* single = nullptr;
  soc::tenant::ShardedService* sharded = nullptr;
  const Workload* workload = nullptr;
  Publisher* publisher = nullptr;  // Multi-tenant only.

  soc::StatusOr<soc::serve::SolveRequest> Parse(const std::string& line,
                                                int line_number) const;
  std::future<soc::serve::SolveResponse> Submit(
      soc::serve::SolveRequest request) const;
  soc::serve::MetricsSnapshot Metrics() const;
  void Drain() const;
};

enum class Phase : std::uint8_t { kWarmup, kClosed };

// What one request saw. The response is read back from its wire line
// (serve::ParseSolveResponseLine) as soon as it arrives, and only these
// fields are kept, in a record of fixed size (see OutcomeStore).
struct Outcome {
  enum class Result : std::uint8_t { kOk, kShed, kError };
  enum class WireError : std::uint8_t { kNone, kRequest, kResponse };

  double sent_ms = 0;  // Since the phase started.
  float latency_ms = 0;  // From the send until this code saw the response.
  float queue_ms = 0;
  float solve_ms = 0;
  int deck_index = 0;
  int satisfied = 0;
  std::int32_t epoch = 0;
  std::int32_t min_epoch = 0;  // Tenant's latest epoch before Submit.
  // The selection, bit i for attribute i; every workload's schema has at
  // most 64 attributes. selected_width is the width the response gave.
  std::uint64_t selected = 0;
  std::uint16_t selected_width = 0;
  Phase phase = Phase::kWarmup;
  Result result = Result::kError;
  WireError wire_error = WireError::kNone;
  std::int8_t solver = -1;  // The response's solver: SolverId(); -1 unknown.
  // From SocSolution::metrics of the response, -1 when absent.
  std::int8_t fallback_tier = -1;
  bool shed_reason = false;  // A kOverloaded response named its reason.
  bool degraded = false;
  bool fast_path = false;
  bool cache_hit = false;
  bool proved_optimal = false;

  double seen_ms() const { return sent_ms + latency_ms; }
  bool ok() const { return result == Result::kOk; }
  bool shed() const { return result == Result::kShed; }
  bool error() const { return result == Result::kError; }
};

// Solver names a response can carry: the registry's, and "none" for the
// zero-visibility fast path. SolverId is the index, -1 for another name.
const std::vector<std::string>& SolverNames();
int SolverId(const std::string& name);

// Every outcome of a run, in slots allocated and written once before any
// set-up is timed: the benchmark's own memory is then the same however
// many requests a run gets through, and peak RSS measures the program. A
// phase ends early if the store fills; the throughput and latency windows
// then divide the time the phase did run.
class OutcomeStore {
 public:
  explicit OutcomeStore(std::size_t capacity);

  // The next free slot, or null when the store is full.
  Outcome* Claim();
  void Clear() { next_.store(0); }

  std::size_t size() const;
  bool full() const { return next_.load() >= slots_.size(); }
  std::size_t bytes() const { return slots_.size() * sizeof(Outcome); }
  const Outcome& operator[](std::size_t i) const { return slots_[i]; }

 private:
  std::vector<Outcome> slots_;
  std::atomic<std::size_t> next_{0};
};

// One phase: the store slots [from, to) it filled, and its wall time.
struct PhaseResult {
  std::size_t from = 0;
  std::size_t to = 0;
  double elapsed_s = 0;
};

// Closed loop: `clients` threads, each sending deck entries (taken in
// deck order from a shared cursor) one at a time, for `seconds`; or, when
// `max_requests` > 0, until that many were sent. Either way it also ends
// when `store` is full.
PhaseResult RunClosedLoop(const Target& target, double seconds,
                          int clients, std::int64_t max_requests,
                          Phase phase, SendCounter* sends,
                          OutcomeStore* store, SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
