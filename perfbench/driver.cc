// perfbench_driver: one run of one benchmark workload against the serving
// stack. run.py builds and invokes it; see README.md for the workloads
// and metrics.
//
//   perfbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1
//                    [--trace-out=PATH]
//   perfbench_driver --digest --workload=NAME --seed=N
//   perfbench_driver --selftest
//
// The last stdout line is one JSON record: the metric values by name
// (run.py attaches the units from BENCHMARK.json), the request ledger,
// the correctness verdict, details and the run's stamp. A --trace=0 run
// reports the end-to-end metrics; a --trace=1 run the per-layer ones.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common/json_writer.h"
#include "kernels/kernels.h"
#include "layers.h"
#include "loadgen.h"
#include "obs/event_log.h"
#include "obs/slo.h"
#include "serve/visibility_service.h"
#include "stats.h"
#include "tenant/sharded_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using soc::JsonValue;
using soc::serve::MetricsSnapshot;

// Share of --seconds the closed loop runs; the rest is left for set-up
// and the checks.
constexpr double kClosedShare = 0.9;

// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 11;

// The closed loop is cut into this many equal windows (by send time),
// and throughput_rps, latency_p50_ms and goodput_frac are the median
// window's (so is the tail latency shown in the run's details). A shared host's
// speed wanders by +-20% for seconds at a time and stalls a thread for
// milliseconds now and then; a median of windows keeps such a stretch
// from moving a whole run. Nine keeps at least 1,000 latencies a window
// on every workload, enough for a p99 with 10 beyond it.
constexpr int kWindows = 9;

// Outcome slots per run (64 MB): about 2.4 times what the busiest workload,
// multitenant_zipf, fills in a 50 s run on a 4-vCPU host (see OutcomeStore).
constexpr std::size_t kOutcomeCapacity = std::size_t{1} << 20;

// Traced-run shares of --seconds: eight closed-loop slices, untraced and
// traced in ABBA order so drift cancels out of trace.overhead_frac.
constexpr bool kSliceTraced[] = {false, true, true, false,
                                 false, true, true, false};
constexpr double kTraceSliceShare = 0.08;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
  bool digest = false;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix, std::string* out) {
      const std::string p = prefix;
      if (arg.rfind(p, 0) != 0) return false;
      *out = arg.substr(p.size());
      return true;
    };
    std::string v;
    if (value("--workload=", &v)) {
      args->workload = v;
    } else if (value("--seed=", &v)) {
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (value("--seconds=", &v)) {
      args->seconds = std::atof(v.c_str());
    } else if (value("--trace=", &v)) {
      args->trace = std::atoi(v.c_str());
    } else if (value("--trace-out=", &v)) {
      args->trace_out = v;
    } else if (arg == "--digest") {
      args->digest = true;
    } else if (arg == "--selftest") {
      args->selftest = true;
    } else {
      std::fprintf(stderr, "perfbench_driver: unknown argument %s\n",
                   arg.c_str());
      return false;
    }
  }
  return args->seconds > 0 && (args->trace == 0 || args->trace == 1);
}

// The program objects of one set-up, destroyed services-first (they hold
// the event log, SLO engine and publisher's service by pointer).
struct Setup {
  std::unique_ptr<soc::obs::EventLog> events;
  std::unique_ptr<soc::obs::SloEngine> slo;
  std::unique_ptr<soc::obs::EventPump> pump;
  std::unique_ptr<soc::serve::VisibilityService> single;
  std::unique_ptr<soc::tenant::ShardedService> sharded;
  std::unique_ptr<Publisher> publisher;
  Target target;
  SendCounter sends;
  std::vector<double> create_ms;
  double seconds = 0;
};

// Service construction, tenant creation and warmup: everything before
// timing starts except input generation. The warmup's outcomes go into
// `store`, emptied first.
std::unique_ptr<Setup> SetUp(const Workload& w, OutcomeStore* store,
                             std::string* error) {
  auto s = std::make_unique<Setup>();
  const auto start = Clock::now();
  if (w.events_and_slo) {
    soc::obs::EventLogOptions event_options;
    event_options.sample_every = 1;
    s->events = std::make_unique<soc::obs::EventLog>(event_options);
    s->events->set_enabled(true);
    soc::obs::SloEngineOptions slo_options;
    slo_options.default_objective.latency_threshold_ms = w.limit_ms;
    s->slo = std::make_unique<soc::obs::SloEngine>(slo_options);
    // The pump only empties the per-thread rings so that they do not
    // overflow; the log itself counts what was recorded and dropped.
    soc::obs::EventPump::Options pump_options;
    pump_options.interval_s = 0.1;
    pump_options.log = s->events.get();
    pump_options.sink = [](const std::vector<soc::obs::WideEvent>&) {};
    s->pump = std::make_unique<soc::obs::EventPump>(pump_options);
  }
  if (w.multitenant) {
    soc::tenant::ShardedServiceOptions options;
    options.num_shards = w.shards;
    options.shard.num_workers = kWorkers / w.shards;
    options.shard.event_log = s->events.get();
    options.shard.slo_engine = s->slo.get();
    s->sharded = std::make_unique<soc::tenant::ShardedService>(options);
    for (const TenantSpec& tenant : w.tenants) {
      soc::QueryLog log = tenant.logs[0];
      const auto created = Clock::now();
      const soc::Status status =
          s->sharded->CreateTenant(tenant.id, std::move(log));
      s->create_ms.push_back(MillisSince(created, Clock::now()));
      if (!status.ok()) {
        *error = "CreateTenant: " + status.ToString();
        return nullptr;
      }
    }
    s->publisher = std::make_unique<Publisher>(w, s->sharded.get());
  } else {
    soc::serve::VisibilityServiceOptions options;
    options.num_workers = kWorkers;
    s->single = std::make_unique<soc::serve::VisibilityService>(w.log, options);
  }
  s->target = Target{s->single.get(), s->sharded.get(), &w, s->publisher.get()};
  store->Clear();
  RunClosedLoop(s->target, 0, w.clients, w.warmup_requests, Phase::kWarmup,
                &s->sends, store, nullptr);
  s->target.Drain();
  s->seconds = MillisSince(start, Clock::now()) / 1e3;
  return s;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB.
    }
  }
  return 0;
}

double Counter(const MetricsSnapshot& m, const std::string& name) {
  const auto it = m.counters.find(name);
  return it == m.counters.end() ? 0.0 : static_cast<double>(it->second);
}

double Gauge(const MetricsSnapshot& m, const std::string& name) {
  const auto it = m.gauges.find(name);
  return it == m.gauges.end() ? 0.0 : it->second;
}

double Share(double part, double whole) { return whole > 0 ? part / whole : 0; }

JsonValue TailJson(const Tail& tail) {
  return JsonValue::Object()
      .Set("value", JsonValue::Number(tail.value))
      .Set("percentile", JsonValue::Number(tail.percentile))
      .Set("beyond", JsonValue::Int(static_cast<long long>(tail.beyond)))
      .Set("samples", JsonValue::Int(static_cast<long long>(tail.samples)));
}

// The closed-loop outcomes in store slots [from, to).
std::vector<const Outcome*> Select(const OutcomeStore& store, std::size_t from,
                                   std::size_t to) {
  std::vector<const Outcome*> selected;
  for (std::size_t i = from; i < std::min(to, store.size()); ++i) {
    if (store[i].phase == Phase::kClosed) selected.push_back(&store[i]);
  }
  return selected;
}

double LimitMs(const Workload& w, const DeckEntry& entry) {
  return entry.deadline_ms > 0 ? entry.deadline_ms : w.limit_ms;
}

// Outcome shares shown next to the metrics: shed, error and degraded
// fractions, OK count.
JsonValue OutcomeShares(const std::vector<const Outcome*>& outcomes) {
  double ok = 0, shed = 0, errors = 0, degraded = 0;
  for (const Outcome* o : outcomes) {
    ok += o->ok();
    shed += o->shed();
    errors += o->error();
    degraded += o->ok() && o->degraded;
  }
  const double sent = static_cast<double>(outcomes.size());
  return JsonValue::Object()
      .Set("sent", JsonValue::Int(static_cast<long long>(sent)))
      .Set("ok", JsonValue::Int(static_cast<long long>(ok)))
      .Set("shed_frac", JsonValue::Number(Share(shed, sent)))
      .Set("error_frac", JsonValue::Number(Share(errors, sent)))
      .Set("degraded_frac", JsonValue::Number(Share(degraded, ok)));
}

struct RunRecord {
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> absent;
  JsonValue details = JsonValue::Object();
  std::vector<std::string> notes;
};

// End-to-end metrics of an untraced run, from its closed loop.
void EndToEnd(const Workload& w, const OutcomeStore& store,
              const PhaseResult& closed, const Publisher* publisher,
              RunRecord* rec) {
  // Throughput, latency and goodput per time window of the closed loop
  // (by send time, throughput by the time the response was seen); each
  // metric is the median window.
  struct Window {
    std::vector<double> latencies;
    double sent = 0, good = 0, seen_ok = 0;
  };
  const std::vector<const Outcome*> measured =
      Select(store, closed.from, closed.to);
  const double window_ms = closed.elapsed_s * 1e3 / kWindows;
  std::vector<Window> windows(static_cast<std::size_t>(kWindows));
  const auto window_of = [&](double ms) -> Window& {
    return windows[static_cast<std::size_t>(
        std::clamp(static_cast<int>(ms / window_ms), 0, kWindows - 1))];
  };
  for (const Outcome* o : measured) {
    Window& window = window_of(o->sent_ms);
    ++window.sent;
    if (!o->ok()) continue;
    if (o->seen_ms() < closed.elapsed_s * 1e3) ++window_of(o->seen_ms()).seen_ok;
    window.latencies.push_back(o->latency_ms);
    window.good +=
        o->latency_ms <= LimitMs(w, w.deck[static_cast<std::size_t>(o->deck_index)]);
  }
  std::vector<double> rates, p50s, tails, goodputs;
  std::vector<JsonValue> rate_json, tail_json;
  for (const Window& window : windows) {
    const Tail tail = TailOf(window.latencies);
    rates.push_back(window.seen_ok * 1e3 / window_ms);
    p50s.push_back(Median(window.latencies));
    tails.push_back(tail.value);
    goodputs.push_back(Share(window.good, window.sent));
    rate_json.push_back(JsonValue::Number(rates.back()));
    tail_json.push_back(TailJson(tail));
  }
  rec->metrics["throughput_rps"] = Median(rates);
  rec->metrics["latency_p50_ms"] = Median(p50s);
  rec->details.Set("latency_tail_ms", JsonValue::Number(Median(tails)));
  rec->metrics["goodput_frac"] = Median(goodputs);
  rec->details.Set("throughput_windows", JsonValue::Array(std::move(rate_json)));
  rec->details.Set("latency_tail_windows",
                   JsonValue::Array(std::move(tail_json)));
  rec->details.Set("closed_loop_s", JsonValue::Number(closed.elapsed_s));

  // Quality: each deck entry's mean answer over the measured phases, then
  // the mean over entries, so the value does not depend on how many
  // times a run happened to replay each entry.
  std::map<int, std::pair<double, int>> per_entry;
  for (const Outcome* o : measured) {
    if (!o->ok()) continue;
    auto& slot = per_entry[o->deck_index];
    slot.first += o->satisfied;
    ++slot.second;
  }
  double visibility = 0;
  for (const auto& [entry, sum] : per_entry) {
    visibility += sum.first / sum.second;
  }
  rec->metrics["visibility_mean"] =
      Share(visibility, static_cast<double>(per_entry.size()));
  rec->details.Set("visibility_entries",
                   JsonValue::Int(static_cast<long long>(per_entry.size())));
  rec->details.Set("outcomes", OutcomeShares(measured));

  if (publisher != nullptr) {
    const std::vector<double> publish = publisher->publish_ms();
    rec->details.Set("publishes", JsonValue::Int(publisher->publishes()));
    rec->details.Set("publish_p50_ms",
                     JsonValue::Number(publish.empty() ? 0 : Median(publish)));
    rec->details.Set("publish_tail", TailJson(TailOf(publish)));
  }
}

// Self time per span name: each span's duration minus the part of it
// that its children cover.
std::map<int, std::pair<double, std::int64_t>> SelfTimes(
    const std::vector<Span>& spans) {
  std::map<std::int64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<int, std::pair<double, std::int64_t>> self;
  for (const Span& s : spans) {
    double covered = 0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>> iv;
      for (const Span* c : it->second) {
        const double a = std::max(c->start_us, s.start_us);
        const double b = std::min(c->end_us, s.end_us);
        if (b > a) iv.push_back({a, b});
      }
      std::sort(iv.begin(), iv.end());
      double cur_a = 0, cur_b = -1;
      for (const auto& [a, b] : iv) {
        if (a > cur_b) {
          if (cur_b > cur_a) covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      if (cur_b > cur_a) covered += cur_b - cur_a;
    }
    auto& slot = self[s.name];
    slot.first += (s.end_us - s.start_us) - covered;
    ++slot.second;
  }
  return self;
}

bool WriteTrace(const std::string& path, const SpanLog& log,
                const std::vector<Span>& spans, const JsonValue& self_json) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    JsonValue e = JsonValue::Object()
                      .Set("name", JsonValue::String(
                                       log.names()[static_cast<std::size_t>(
                                           s.name)]))
                      .Set("ph", JsonValue::String("X"))
                      .Set("ts", JsonValue::Number(s.start_us))
                      .Set("dur", JsonValue::Number(s.end_us - s.start_us))
                      .Set("pid", JsonValue::Int(1))
                      .Set("tid", JsonValue::Int(s.request))
                      .Set("args", JsonValue::Object()
                                       .Set("id", JsonValue::Int(s.id))
                                       .Set("parent", JsonValue::Int(s.parent))
                                       .Set("request", JsonValue::Int(s.request)));
    out << (i ? ",\n" : "\n") << e.ToString();
  }
  out << "\n],\"selfTime\":" << self_json.ToString() << "}\n";
  return static_cast<bool>(out);
}

// Per-layer metrics of a traced run.
void PerLayer(const Workload& w, Setup& s, const Args& args, RunRecord* rec,
              OutcomeStore* store, CheckReport* report,
              std::vector<std::string>* failures) {
  const double S = args.seconds;
  SpanLog spans;
  const MetricsSnapshot before = s.target.Metrics();
  const auto wall_start = Clock::now();

  // Alternating untraced / traced closed-loop slices.
  std::vector<PhaseResult> results;
  PublishSchedule publishes(s.publisher.get(), &s.sends, w.publish_every,
                            &spans);
  for (const bool traced : kSliceTraced) {
    results.push_back(RunClosedLoop(s.target, S * kTraceSliceShare,
                                    w.clients, 0, Phase::kClosed, &s.sends,
                                    store, traced ? &spans : nullptr));
  }
  *failures = publishes.Stop();
  s.target.Drain();
  const double wall_s = MillisSince(wall_start, Clock::now()) / 1e3;
  const MetricsSnapshot after = s.target.Metrics();
  *report = CheckOutcomes(w, *store, s.publisher.get());

  double untraced_ok = 0, untraced_s = 0, traced_ok = 0, traced_s = 0;
  std::vector<const Outcome*> traced;
  std::vector<double> untraced_latencies;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::vector<const Outcome*> slice =
        Select(*store, results[i].from, results[i].to);
    double ok = 0;
    for (const Outcome* o : slice) ok += o->ok();
    if (kSliceTraced[i]) {
      traced_ok += ok;
      traced_s += results[i].elapsed_s;
      traced.insert(traced.end(), slice.begin(), slice.end());
    } else {
      untraced_ok += ok;
      untraced_s += results[i].elapsed_s;
      for (const Outcome* o : slice) {
        if (o->ok()) untraced_latencies.push_back(o->latency_ms);
      }
    }
  }
  auto& m = rec->metrics;
  // Not gated (see README.md): on multitenant_zipf the tail falls where a
  // bimodal latency distribution thins out, and it moved with the host.
  m["latency_tail_ms"] = TailOf(untraced_latencies).value;
  const double untraced_rps = Share(untraced_ok, untraced_s);
  m["trace.overhead_frac"] =
      untraced_rps > 0 ? 1.0 - Share(traced_ok, traced_s) / untraced_rps : 0;

  // Serving-path numbers over the traced requests.
  std::vector<double> queue_ms, solve_ms, hit_ms, miss_ms;
  double ok = 0, fast = 0, fallback = 0, greedy_tier = 0, shed = 0,
         errors = 0, degraded = 0;
  for (const Outcome* o : traced) {
    shed += o->shed();
    errors += o->error();
    if (!o->ok()) continue;
    ++ok;
    degraded += o->degraded;
    fast += o->fast_path;
    queue_ms.push_back(o->queue_ms);
    solve_ms.push_back(o->solve_ms);
    if (w.multitenant) (o->cache_hit ? hit_ms : miss_ms).push_back(o->solve_ms);
    const double tier = o->fallback_tier;
    if (tier >= 0) {
      ++fallback;
      greedy_tier += tier >= 1;
    }
  }
  const auto p50 = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : Median(v);
  };
  const double sent = static_cast<double>(traced.size());
  m["shed_frac"] = Share(shed, sent);
  m["error_frac"] = Share(errors, sent);
  m["degraded_frac"] = Share(degraded, ok);
  m["serve.queue_ms.p50"] = p50(queue_ms);
  m["serve.queue_ms.tail"] = TailOf(queue_ms).value;
  m["serve.solve_ms.p50"] = p50(solve_ms);
  m["serve.solve_ms.tail"] = TailOf(solve_ms).value;
  m["serve.fast_path_frac"] = Share(fast, ok);
  m["core.fallback.greedy_tier_frac"] = Share(greedy_tier, fallback);
  rec->details.Set("fallback_responses",
                   JsonValue::Int(static_cast<long long>(fallback)));

  const auto delta = [&](const std::string& name) {
    return Counter(after, name) - Counter(before, name);
  };
  const double busy_ms =
      Gauge(after, "pool.execute_ms_total") - Gauge(before, "pool.execute_ms_total");
  m["serve.pool.busy_frac"] = Share(busy_ms, kWorkers * wall_s * 1e3);
  for (const char* name :
       {"shed_predicted", "rejected_queue_full", "late_fallback",
        "ladder_downgraded", "breaker_rerouted", "watchdog_cancelled"}) {
    m[std::string("serve.") + name] = delta(name);
  }
  const double mfi_hits = delta("mfi_cache.hits");
  m["serve.mfi_cache.hit_rate"] =
      Share(mfi_hits, mfi_hits + delta("mfi_cache.misses"));
  if (w.multitenant) {
    rec->absent["serve.mfi_cache.hit_rate"] =
        "the sharded service exports no MFI cache counters";
  } else if (mfi_hits + delta("mfi_cache.misses") == 0) {
    rec->absent["serve.mfi_cache.hit_rate"] =
        "no MaxFreqItemSets request reached a solver";
  }

  // tenant layer.
  const double hits = delta("result_cache.hits");
  m["tenant.result_cache.hit_rate"] =
      Share(hits, hits + delta("result_cache.misses"));
  m["tenant.result_cache.flight_waits"] = delta("result_cache.flight_waits");
  m["tenant.result_cache.evictions"] = delta("result_cache.evictions");
  m["tenant.hit_solve_ms.p50"] = p50(hit_ms);
  m["tenant.hit_solve_ms.tail"] = TailOf(hit_ms).value;
  m["tenant.miss_solve_ms.p50"] = p50(miss_ms);
  m["tenant.miss_solve_ms.tail"] = TailOf(miss_ms).value;
  m["tenant.create_ms"] = p50(s.create_ms);
  const std::vector<double> publish =
      s.publisher ? s.publisher->publish_ms() : std::vector<double>{};
  m["tenant.publish_ms"] = p50(publish);
  m["publish_p50_ms"] = p50(publish);
  m["publish_tail_ms"] = TailOf(publish).value;
  if (!w.multitenant) {
    for (const char* key :
         {"tenant.result_cache.hit_rate", "tenant.result_cache.flight_waits",
          "tenant.result_cache.evictions", "tenant.hit_solve_ms.p50",
          "tenant.hit_solve_ms.tail", "tenant.miss_solve_ms.p50",
          "tenant.miss_solve_ms.tail", "tenant.create_ms", "tenant.publish_ms",
          "publish_p50_ms", "publish_tail_ms"}) {
      rec->absent[key] = "single-tenant workload: no tenant layer";
    }
  }

  // obs: the event ledger of the whole service lifetime.
  if (s.events) {
    s.pump->Stop();
    m["obs.events_recorded"] = static_cast<double>(s.events->events_recorded());
    m["obs.events_dropped"] = static_cast<double>(s.events->events_dropped());
    m["obs.events_per_request"] =
        Share(m["obs.events_recorded"], static_cast<double>(s.sends.next.load()));
  } else {
    for (const char* key : {"obs.events_recorded", "obs.events_dropped",
                            "obs.events_per_request"}) {
      m[key] = 0;
      rec->absent[key] = "event log off on this workload";
    }
  }

  // Protocol and submit timings, from the serving-path spans.
  std::vector<Span> all_spans = spans.Take();
  std::map<std::string, std::vector<double>> by_name;
  for (const Span& sp : all_spans) {
    by_name[spans.names()[static_cast<std::size_t>(sp.name)]].push_back(
        sp.end_us - sp.start_us);
  }
  m["serve.protocol.parse_us"] =
      p50(by_name["serve.protocol.ParseSolveRequestLine"]);
  m["serve.protocol.encode_us"] =
      p50(by_name["serve.protocol.ResponseToJson"]);
  m["serve.submit_us"] = p50(by_name["serve.Submit"]);

  // Direct calls into the layers under the solve.
  MeasureLayers(w, &spans, &m, &rec->absent, &rec->notes);
  for (Span& sp : spans.Take()) all_spans.push_back(sp);

  const auto self = SelfTimes(all_spans);
  JsonValue self_json = JsonValue::Object();
  for (const auto& [name, slot] : self) {
    self_json.Set(spans.names()[static_cast<std::size_t>(name)],
                  JsonValue::Object()
                      .Set("count", JsonValue::Int(slot.second))
                      .Set("self_us_total", JsonValue::Number(slot.first))
                      .Set("self_us_mean",
                           JsonValue::Number(slot.first / slot.second)));
  }
  rec->details.Set("self_time", self_json);
  rec->details.Set("spans", JsonValue::Int(static_cast<long long>(all_spans.size())));
  if (!args.trace_out.empty()) {
    if (WriteTrace(args.trace_out, spans, all_spans, self_json)) {
      rec->details.Set("trace_file", JsonValue::String(args.trace_out));
    } else {
      rec->notes.push_back("could not write " + args.trace_out);
    }
  }
  rec->notes.push_back(
      "layer shares are estimates: each layer's standalone call time on the "
      "sampled requests against core.solve_ms.<solver>; the program has no "
      "spans of its own yet");
}

int SelfTest() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  const auto ramp = [](int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i) v.push_back(i);  // Unsorted on purpose.
    return v;
  };
  Tail t = TailOf(ramp(1000));
  expect(t.percentile == 99 && t.value == 990 && t.beyond == 10,
         "1000 samples: p99 with 10 beyond");
  t = TailOf(ramp(999));
  expect(t.percentile == 95 && t.value == 950 && t.beyond == 49,
         "999 samples: p99 has 9 beyond, so p95");
  t = TailOf(ramp(150));
  expect(t.percentile == 90 && t.value == 135 && t.beyond == 15,
         "150 samples: p90");
  t = TailOf(ramp(50));
  expect(t.percentile == 100 && t.value == 50 && t.beyond == 0,
         "50 samples: no tail qualifies, the maximum");
  t = TailOf({});
  expect(t.samples == 0 && t.value == 0, "empty input");
  expect(Percentile({5, 1, 3}, 0.5) == 3, "nearest-rank median of 3");
  expect(Percentile({4, 1, 3, 2}, 0.5) == 2, "nearest-rank median of 4");
  expect(Percentile({7}, 0.99) == 7, "single sample");
  // Self time: a 10us root with children [1,4] and [3,6] covers 5us.
  const std::vector<Span> spans = {Span{0, 1, 0, 1, 0, 10},
                                   Span{1, 2, 1, 1, 1, 4},
                                   Span{1, 3, 1, 1, 3, 6}};
  const auto self = SelfTimes(spans);
  expect(self.at(0).first == 5 && self.at(1).first == 6,
         "self time subtracts the union of child intervals");
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

JsonValue Stamp(const Workload& w, const Args& args) {
  std::vector<JsonValue> tiers;
  for (const auto tier : soc::kernels::AvailableTiers()) {
    tiers.push_back(JsonValue::String(soc::kernels::TierName(tier)));
  }
  return JsonValue::Object()
      .Set("workload", JsonValue::String(w.name))
      .Set("seed", JsonValue::Int(static_cast<long long>(args.seed)))
      .Set("seconds", JsonValue::Number(args.seconds))
      .Set("trace", JsonValue::Int(args.trace))
      .Set("stream_digest", JsonValue::String(StreamDigest(w)))
      .Set("hardware_concurrency",
           JsonValue::Int(std::thread::hardware_concurrency()))
      .Set("kernel_tier", JsonValue::String(soc::kernels::TierName(
                              soc::kernels::ActiveTier())))
      .Set("kernel_tiers", JsonValue::Array(std::move(tiers)))
      .Set("compiler", JsonValue::String(PERFBENCH_COMPILER))
      .Set("build_type", JsonValue::String(PERFBENCH_BUILD_TYPE))
      .Set("service_workers", JsonValue::Int(kWorkers))
      .Set("shards", JsonValue::Int(w.multitenant ? w.shards : 0))
      .Set("closed_loop_clients", JsonValue::Int(w.clients));
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload=NAME --seed=N "
                 "--seconds=S --trace=0|1 [--trace-out=PATH] | --digest | "
                 "--selftest\n");
    return 2;
  }
  if (args.selftest) return SelfTest();
  const Workload w = MakeWorkload(args.workload, args.seed);
  if (w.name.empty()) {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.digest) {
    std::printf("%s\n", StreamDigest(w).c_str());
    return 0;
  }

  // Allocated and written before anything is timed (see OutcomeStore).
  OutcomeStore store(kOutcomeCapacity);

  // Several set-ups; the last one serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup.reset();
    std::string error;
    setup = SetUp(w, &store, &error);
    if (!setup) {
      std::fprintf(stderr, "perfbench_driver: set-up failed: %s\n",
                   error.c_str());
      return 1;
    }
    setup_s.push_back(setup->seconds);
  }

  RunRecord rec;
  CheckReport report;
  std::vector<std::string> errors;
  if (args.trace == 0) {
    rec.metrics["setup_s"] = Median(setup_s);
    PublishSchedule publishes(setup->publisher.get(), &setup->sends,
                              w.publish_every, nullptr);
    const PhaseResult closed =
        RunClosedLoop(setup->target, args.seconds * kClosedShare, w.clients,
                      0, Phase::kClosed, &setup->sends, &store, nullptr);
    for (std::string& e : publishes.Stop()) errors.push_back(std::move(e));
    setup->target.Drain();
    if (setup->events) setup->pump->Stop();
    // The outcome store is resident from the start; what is left is the
    // program's (and the inputs') peak.
    rec.metrics["peak_rss_mb"] =
        PeakRssMb() - static_cast<double>(store.bytes()) / (1024.0 * 1024.0);
    rec.details.Set("outcome_store_mb",
                    JsonValue::Number(static_cast<double>(store.bytes()) /
                                      (1024.0 * 1024.0)));
    report = CheckOutcomes(w, store, setup->publisher.get());
    EndToEnd(w, store, closed, setup->publisher.get(), &rec);
  } else {
    PerLayer(w, *setup, args, &rec, &store, &report, &errors);
  }
  rec.details.Set("outcome_store_full", JsonValue::Bool(store.full()));

  // Ledgers: the service counted every request this code sent, and with
  // events on, every request left exactly one event (recorded or dropped).
  const MetricsSnapshot final_metrics = setup->target.Metrics();
  const auto total_sent = static_cast<double>(setup->sends.next.load());
  if (Counter(final_metrics, "submitted") != total_sent) {
    errors.push_back("ledger: service counted " +
                     std::to_string(Counter(final_metrics, "submitted")) +
                     " submissions, benchmark sent " +
                     std::to_string(total_sent));
  }
  if (setup->events) {
    const double events = static_cast<double>(setup->events->events_recorded() +
                                              setup->events->events_dropped());
    if (events != total_sent) {
      errors.push_back("event ledger: recorded + dropped = " +
                       std::to_string(events) + ", requests = " +
                       std::to_string(total_sent));
    }
  }
  for (const std::string& f : report.failures) errors.push_back(f);

  std::int64_t measured = 0, measured_errors = 0;
  for (std::size_t i = 0; i < store.size(); ++i) {
    if (store[i].phase == Phase::kWarmup) continue;
    ++measured;
    measured_errors += store[i].error();
  }
  // Failed operations: measured requests that errored or failed a check,
  // plus run-level failures (ledgers, publishes, failed warmup checks).
  const std::int64_t run_failures =
      static_cast<std::int64_t>(errors.size() - report.failures.size()) +
      (report.check_failures > 0 && report.failed_measured == 0 ? 1 : 0);
  const std::int64_t failed =
      measured_errors + report.failed_measured + run_failures;
  const bool correct =
      failed == 0 && report.errors == 0 && report.check_failures == 0;

  for (const std::string& e : errors) {
    std::printf("perfbench: CHECK FAILED: %s\n", e.c_str());
  }
  for (const auto& [key, why] : rec.absent) {
    std::printf("perfbench: %s = 0 (%s)\n", key.c_str(), why.c_str());
  }
  for (const std::string& note : rec.notes) {
    std::printf("perfbench: note: %s\n", note.c_str());
  }
  std::printf(
      "perfbench: checked %lld OK answers (%lld claimed optimal re-solved, "
      "%lld cache hits matched, %lld of them answered by another solver), "
      "%lld check failures\n",
      static_cast<long long>(report.checked),
      static_cast<long long>(report.optimum_checked),
      static_cast<long long>(report.hits_checked),
      static_cast<long long>(report.cross_solver_hits),
      static_cast<long long>(report.check_failures));

  JsonValue metrics = JsonValue::Object();
  for (const auto& [name, value] : rec.metrics) {
    metrics.Set(name, JsonValue::Number(value));
  }
  JsonValue absent = JsonValue::Object();
  for (const auto& [name, why] : rec.absent) {
    absent.Set(name, JsonValue::String(why));
  }
  std::vector<JsonValue> setups;
  for (const double s : setup_s) setups.push_back(JsonValue::Number(s));
  rec.details.Set("setup_s_each", JsonValue::Array(std::move(setups)));
  rec.details.Set("checked", JsonValue::Int(report.checked));
  rec.details.Set("check_failures", JsonValue::Int(report.check_failures));
  rec.details.Set("cross_solver_hits", JsonValue::Int(report.cross_solver_hits));
  const JsonValue record =
      JsonValue::Object()
          .Set("correct", JsonValue::Bool(correct))
          .Set("attempted", JsonValue::Int(measured))
          .Set("failed", JsonValue::Int(failed))
          .Set("metrics", std::move(metrics))
          .Set("absent", std::move(absent))
          .Set("details", std::move(rec.details))
          .Set("stamp", Stamp(w, args));
  std::printf("%s\n", record.ToString().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
