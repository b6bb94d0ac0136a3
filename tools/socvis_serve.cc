// socvis_serve: concurrent batch SOC-CB-QL serving over JSONL.
//
// Usage:
//   socvis_serve --log=log.csv --requests=reqs.jsonl [--workers=N]
//   socvis_datagen ... | socvis_serve --log=log.csv --requests=-
//
// Reads one flat JSON solve request per line (see src/serve/protocol.h
// for the schema), runs them through a VisibilityService worker pool,
// and prints one JSON response per line in submission order. Blank lines
// are skipped; a malformed line becomes an error response for that line
// rather than aborting the run. The final line is a metrics block:
//   {"metrics":{"counters":{...},"histograms":{...}}}
//
// Flags:
//   --workers=N              worker threads (default 4)
//   --queue=N                admission bound on queued requests (0 = off)
//   --default-deadline-ms=T  deadline for requests that carry none
//   --reject-late            reject expired requests with Overloaded
//                            instead of degrading them to Fallback
//   --no-shed                disable cost-aware predictive shedding
//   --retries=N              retry Overloaded responses up to N times with
//                            jittered exponential backoff, honoring each
//                            response's retry_after_ms hint (default 0)
//   --retry-budget=R         retry-budget token ratio: at most R retries
//                            per fresh request over the run (default 0.1)
//   --cache-capacity=N       shared MFI cache entries per engine
//   --no-metrics             suppress the trailing metrics line
//   --trace-out=PATH         record per-request spans and solver phases,
//                            writing Chrome trace_event JSON on exit
//                            (load in chrome://tracing or Perfetto)
//   --metrics-interval-ms=T  export a Prometheus-style metrics page every
//                            T ms while the batch runs (0 = off)
//   --metrics-out=PATH       destination for the periodic pages
//                            (default: stderr)
//
// Observability v2 (DESIGN.md §15, both modes):
//   --events-out=PATH        wide-event request log: one JSON line per
//                            request outcome (schema: src/obs/wide_event.h),
//                            size-rotated at --events-max-bytes
//   --events-sample=N        record every Nth request (default 1)
//   --events-max-bytes=N     rotate the event log past N bytes
//                            (default 64MiB)
//   --profile-out=PATH       sample the process with SIGPROF while the
//                            batch runs; write collapsed stacks
//                            (flamegraph.pl input) on exit
//   --slo-latency-ms=T       default SLO: a request slower than T ms is
//                            bad (enables the SLO engine)
//   --slo-target=A           default availability target (default 0.999)
//   --slo=TENANT:MS:A        per-tenant objective override (repeatable)
// When the SLO engine is enabled the run ends with one {"slo":{...}}
// line of per-tenant burn rates, and multi-tenant streams may query it
// live with {"admin":"slo"}.
//
// Multi-tenant mode (selected by any --tenant flag):
//   socvis_serve --tenant=acme:acme.csv --tenant=beta:beta.csv
//       --requests=reqs.jsonl [--shards=N]
// Routes requests by their "tenant_id" field through a consistent-hash
// sharded service (src/tenant). Request lines must carry "tenant_id";
// admin lines interleaved on the same stream manage tenants live:
//   {"admin":"create_tenant","tenant_id":"acme","log":"acme.csv"}
//   {"admin":"publish_epoch","tenant_id":"acme","log":"acme_v2.csv"}
// Each admin line is applied in stream order (later requests see the new
// epoch; in-flight requests finish on the epoch they pinned) and echoes
// a response line {"admin":...,"tenant_id":...,"status":"OK","epoch":E}.
// Multi-tenant flags:
//   --tenant=NAME:PATH       create tenant NAME from query-log CSV PATH
//                            (repeatable; may also arrive via admin lines)
//   --shards=N               number of shards (default 4)
//   --result-cache-capacity=N  per-shard result-cache entries (default
//                            4096; 0 turns the cache off)
// --workers is per shard; --retries is unsupported in this mode.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <memory>

#include "boolean/query_log.h"
#include "common/string_util.h"
#include "core/solver_registry.h"
#include "obs/event_log.h"
#include "obs/profiler.h"
#include "obs/slo.h"
#include "obs/trace_recorder.h"
#include "serve/batch_engine.h"
#include "serve/metrics_exporter.h"
#include "serve/protocol.h"
#include "serve/visibility_service.h"
#include "tenant/sharded_service.h"

namespace {

std::string GetFlag(int argc, char** argv, const std::string& name,
                    const std::string& default_value) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return default_value;
}

std::vector<std::string> GetFlagValues(int argc, char** argv,
                                       const std::string& name) {
  const std::string prefix = "--" + name + "=";
  std::vector<std::string> values;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) values.push_back(arg.substr(prefix.size()));
  }
  return values;
}

bool HasFlag(int argc, char** argv, const std::string& name) {
  const std::string flag = "--" + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "socvis_serve: %s\n", message.c_str());
  return 1;
}

int Usage() {
  return Fail(
      "usage: socvis_serve --log=log.csv --requests=reqs.jsonl|- "
      "[--workers=N] [--queue=N] [--default-deadline-ms=T] "
      "[--reject-late] [--no-shed] [--retries=N] [--retry-budget=R] "
      "[--cache-capacity=N] [--no-metrics] "
      "[--trace-out=PATH] [--metrics-interval-ms=T] "
      "[--metrics-out=PATH] [--events-out=PATH] [--events-sample=N] "
      "[--events-max-bytes=N] [--profile-out=PATH] "
      "[--slo-latency-ms=T] [--slo-target=A] [--slo=TENANT:MS:A]\n"
      "   or: socvis_serve --tenant=NAME:PATH [--tenant=...] "
      "--requests=reqs.jsonl|- [--shards=N] "
      "[--result-cache-capacity=N (0 = no cache)] (plus the flags above; "
      "--workers is per shard, --retries is unsupported)\n  solvers: " +
      soc::Join(soc::RegisteredSolverNames(), ", "));
}

soc::StatusOr<soc::QueryLog> LoadCsvLog(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return soc::InvalidArgumentError("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return soc::QueryLog::FromCsv(buffer.str());
}

// Observability v2 wiring shared by both serving modes: the wide-event
// pipeline (--events-out), the sampling profiler (--profile-out) and
// the per-tenant SLO engine (--slo-latency-ms / --slo-target / --slo).
// Declared before the service so members outlive every worker record;
// destruction order (pump, then sink, then log) is the member reverse.
struct ObsStack {
  std::unique_ptr<soc::obs::EventLog> event_log;
  std::unique_ptr<soc::obs::JsonlEventSink> sink;
  std::unique_ptr<soc::obs::EventPump> pump;
  std::unique_ptr<soc::obs::SloEngine> slo;
  std::string profile_path;
  bool profiling = false;
};

// Parses the observability flags into `obs` and starts the event pump /
// profiler. Returns a non-empty error message on bad flags.
std::string SetUpObs(int argc, char** argv, ObsStack* obs) {
  using namespace soc;

  const std::string events_path = GetFlag(argc, argv, "events-out", "");
  if (!events_path.empty()) {
    obs::EventLogOptions log_options;
    log_options.sample_every =
        std::atoll(GetFlag(argc, argv, "events-sample", "1").c_str());
    if (log_options.sample_every < 1) return "--events-sample must be >= 1";
    obs->event_log = std::make_unique<obs::EventLog>(log_options);
    obs->event_log->set_enabled(true);

    obs::JsonlEventSink::Options sink_options;
    sink_options.path = events_path;
    sink_options.max_bytes = std::atoll(
        GetFlag(argc, argv, "events-max-bytes", "67108864").c_str());
    if (sink_options.max_bytes < 1) return "--events-max-bytes must be >= 1";
    obs->sink = std::make_unique<obs::JsonlEventSink>(sink_options);
    const Status opened = obs->sink->Open();
    if (!opened.ok()) return opened.ToString();

    obs::EventPump::Options pump_options;
    pump_options.log = obs->event_log.get();
    pump_options.sink = [sink = obs->sink.get()](
                            const std::vector<obs::WideEvent>& events) {
      IgnoreError(sink->Write(events), "event sink write");
    };
    obs->pump = std::make_unique<obs::EventPump>(pump_options);
  }

  const std::string slo_latency = GetFlag(argc, argv, "slo-latency-ms", "");
  const std::string slo_target = GetFlag(argc, argv, "slo-target", "");
  const std::vector<std::string> slo_specs = GetFlagValues(argc, argv, "slo");
  if (!slo_latency.empty() || !slo_target.empty() || !slo_specs.empty()) {
    obs::SloEngineOptions slo_options;
    if (!slo_latency.empty()) {
      slo_options.default_objective.latency_threshold_ms =
          std::atof(slo_latency.c_str());
      if (slo_options.default_objective.latency_threshold_ms <= 0) {
        return "--slo-latency-ms must be > 0";
      }
    }
    if (!slo_target.empty()) {
      slo_options.default_objective.availability_target =
          std::atof(slo_target.c_str());
      if (slo_options.default_objective.availability_target <= 0 ||
          slo_options.default_objective.availability_target >= 1) {
        return "--slo-target must be in (0, 1)";
      }
    }
    obs->slo = std::make_unique<obs::SloEngine>(slo_options);
    for (const std::string& spec : slo_specs) {
      // TENANT:MS:TARGET, splitting from the right so tenant ids may
      // contain colons.
      const std::size_t target_colon = spec.rfind(':');
      const std::size_t ms_colon = target_colon == std::string::npos
                                       ? std::string::npos
                                       : spec.rfind(':', target_colon - 1);
      if (ms_colon == std::string::npos || ms_colon == 0) {
        return "--slo wants TENANT:MS:TARGET, got '" + spec + "'";
      }
      obs::SloObjective objective;
      objective.latency_threshold_ms =
          std::atof(spec.substr(ms_colon + 1, target_colon - ms_colon - 1)
                        .c_str());
      objective.availability_target =
          std::atof(spec.substr(target_colon + 1).c_str());
      if (objective.latency_threshold_ms <= 0 ||
          objective.availability_target <= 0 ||
          objective.availability_target >= 1) {
        return "--slo wants MS > 0 and TARGET in (0, 1), got '" + spec + "'";
      }
      obs->slo->SetObjective(spec.substr(0, ms_colon), objective);
    }
  }

  obs->profile_path = GetFlag(argc, argv, "profile-out", "");
  if (!obs->profile_path.empty()) {
    const Status started = obs::Profiler::Instance().Start();
    if (!started.ok()) return started.ToString();
    obs->profiling = true;
  }
  return "";
}

// Stops the pump (final flush) and profiler, writes the collapsed
// stacks, and prints the end-of-run SLO report line. Returns a
// non-empty error message on I/O failure.
std::string FinishObs(ObsStack* obs) {
  using namespace soc;

  if (obs->pump != nullptr) obs->pump->Stop();
  if (obs->sink != nullptr) {
    const Status closed = obs->sink->Close();
    if (!closed.ok()) return closed.ToString();
  }
  if (obs->profiling) {
    obs::Profiler& profiler = obs::Profiler::Instance();
    const Status stopped = profiler.Stop();
    if (!stopped.ok()) return stopped.ToString();
    const Status written = profiler.WriteCollapsed(obs->profile_path);
    if (!written.ok()) return written.ToString();
  }
  if (obs->slo != nullptr) {
    JsonValue line = JsonValue::Object();
    line.Set("slo", obs->slo->Report().ToJson());
    std::cout << line.ToString() << "\n";
  }
  return "";
}

// One response line per admin line, echoing the action. On success the
// line carries the resulting epoch (1 for create_tenant).
std::string AdminResponseLine(const soc::serve::AdminRequest& admin,
                              const soc::StatusOr<std::int64_t>& epoch) {
  soc::JsonValue json = soc::JsonValue::Object();
  json.Set("admin", soc::JsonValue::String(admin.action));
  if (!admin.tenant_id.empty()) {
    json.Set("tenant_id", soc::JsonValue::String(admin.tenant_id));
  }
  json.Set("status", soc::JsonValue::String(
                         soc::StatusCodeToString(epoch.status().code())));
  if (epoch.ok()) {
    json.Set("epoch", soc::JsonValue::Int(*epoch));
  } else {
    json.Set("error", soc::JsonValue::String(epoch.status().message()));
  }
  return json.ToString();
}

// {"admin":"slo"} response: the live burn-rate report, optionally
// filtered to one tenant.
std::string SloAdminResponseLine(const soc::serve::AdminRequest& admin,
                                 const soc::obs::SloEngine* slo) {
  soc::JsonValue json = soc::JsonValue::Object();
  json.Set("admin", soc::JsonValue::String("slo"));
  if (!admin.tenant_id.empty()) {
    json.Set("tenant_id", soc::JsonValue::String(admin.tenant_id));
  }
  if (slo == nullptr) {
    json.Set("status",
             soc::JsonValue::String(soc::StatusCodeToString(
                 soc::StatusCode::kFailedPrecondition)));
    json.Set("error",
             soc::JsonValue::String(
                 "SLO engine not enabled; pass --slo-latency-ms, "
                 "--slo-target or --slo"));
    return json.ToString();
  }
  soc::obs::SloReport report = slo->Report();
  if (!admin.tenant_id.empty()) {
    std::erase_if(report.tenants, [&](const auto& entry) {
      return entry.first != admin.tenant_id;
    });
  }
  json.Set("status", soc::JsonValue::String(
                         soc::StatusCodeToString(soc::StatusCode::kOk)));
  json.Set("slo", report.ToJson());
  return json.ToString();
}

// Multi-tenant mode: a ShardedService front door with admin lines
// (create_tenant / publish_epoch) interleaved on the request stream.
int RunMultiTenant(int argc, char** argv) {
  using namespace soc;

  const std::string requests_path = GetFlag(argc, argv, "requests", "");
  if (requests_path.empty()) return Usage();
  if (std::atoi(GetFlag(argc, argv, "retries", "0").c_str()) != 0) {
    return Fail("--retries is not supported in multi-tenant mode");
  }

  tenant::ShardedServiceOptions options;
  options.num_shards = std::atoi(GetFlag(argc, argv, "shards", "4").c_str());
  if (options.num_shards < 1) return Fail("--shards must be >= 1");
  options.mfi_cache_capacity = static_cast<std::size_t>(
      std::atoll(GetFlag(argc, argv, "cache-capacity", "32").c_str()));
  if (options.mfi_cache_capacity < 1) {
    return Fail("--cache-capacity must be >= 1");
  }
  options.shard.num_workers =
      std::atoi(GetFlag(argc, argv, "workers", "2").c_str());
  if (options.shard.num_workers < 1) return Fail("--workers must be >= 1");
  options.shard.max_queue = static_cast<std::size_t>(
      std::atoll(GetFlag(argc, argv, "queue", "1024").c_str()));
  options.shard.default_deadline_ms =
      std::atof(GetFlag(argc, argv, "default-deadline-ms", "0").c_str());
  options.shard.reject_expired = HasFlag(argc, argv, "reject-late");
  options.shard.predictive_shedding = !HasFlag(argc, argv, "no-shed");
  options.shard.result_cache_capacity = static_cast<std::size_t>(
      std::atoll(GetFlag(argc, argv, "result-cache-capacity", "4096").c_str()));

  std::ifstream requests_file;
  std::istream* requests = &std::cin;
  if (requests_path != "-") {
    requests_file.open(requests_path, std::ios::binary);
    if (!requests_file) return Fail("cannot open " + requests_path);
    requests = &requests_file;
  }

  obs::TraceRecorder recorder;
  const std::string trace_path = GetFlag(argc, argv, "trace-out", "");
  if (!trace_path.empty()) {
    recorder.set_enabled(true);
    options.shard.trace_recorder = &recorder;
  }

  // Declared before the service: shards record into these from worker
  // threads until the service is destroyed.
  ObsStack obs;
  const std::string obs_error = SetUpObs(argc, argv, &obs);
  if (!obs_error.empty()) return Fail(obs_error);
  options.shard.event_log = obs.event_log.get();
  options.shard.slo_engine = obs.slo.get();

  tenant::ShardedService service(options);
  for (const std::string& spec : GetFlagValues(argc, argv, "tenant")) {
    const std::size_t colon = spec.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
      return Fail("--tenant wants NAME:PATH, got '" + spec + "'");
    }
    const std::string name = spec.substr(0, colon);
    auto log = LoadCsvLog(spec.substr(colon + 1));
    if (!log.ok()) return Fail(log.status().ToString());
    const Status created = service.CreateTenant(name, std::move(log).value());
    if (!created.ok()) return Fail(created.ToString());
  }

  std::ofstream metrics_file;
  std::unique_ptr<serve::MetricsExporter> exporter;
  const double metrics_interval_ms =
      std::atof(GetFlag(argc, argv, "metrics-interval-ms", "0").c_str());
  if (metrics_interval_ms > 0) {
    serve::MetricsExporter::Options exporter_options;
    exporter_options.interval_s = metrics_interval_ms / 1000.0;
    exporter_options.snapshot_provider = [&service] {
      return service.Metrics();
    };
    const std::string metrics_out = GetFlag(argc, argv, "metrics-out", "");
    if (!metrics_out.empty()) {
      metrics_file.open(metrics_out, std::ios::binary | std::ios::trunc);
      if (!metrics_file) return Fail("cannot open " + metrics_out);
      exporter_options.sink = [&metrics_file](const std::string& page) {
        metrics_file << page << "\n";
        metrics_file.flush();
      };
    } else {
      exporter_options.sink = [](const std::string& page) {
        std::fputs(page.c_str(), stderr);
      };
    }
    exporter =
        std::make_unique<serve::MetricsExporter>(std::move(exporter_options));
  }

  // Admin lines and parse failures resolve inline; solves resolve via
  // futures. Slots keep output in input order either way.
  std::vector<std::string> inline_lines;
  std::vector<std::future<serve::SolveResponse>> futures;
  std::vector<long long> response_slots;  // >=0: future; <0: inline.
  int line_number = 0;
  std::string line;
  while (std::getline(*requests, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (serve::LooksLikeAdminLine(line)) {
      // Applied synchronously, so every later request line sees its
      // effect (in-flight requests finish on the epoch they pinned).
      auto admin = serve::ParseAdminRequestLine(line);
      std::string out;
      if (!admin.ok()) {
        out = AdminResponseLine(serve::AdminRequest{}, admin.status());
      } else if (admin->action == "slo") {
        out = SloAdminResponseLine(*admin, obs.slo.get());
      } else {
        StatusOr<std::int64_t> epoch(0);
        auto log = LoadCsvLog(admin->log_path);
        if (!log.ok()) {
          epoch = log.status();
        } else if (admin->action == "create_tenant") {
          const Status created =
              service.CreateTenant(admin->tenant_id, std::move(log).value());
          epoch = created.ok() ? StatusOr<std::int64_t>(1)
                               : StatusOr<std::int64_t>(created);
        } else {
          epoch =
              service.PublishEpoch(admin->tenant_id, std::move(log).value());
        }
        out = AdminResponseLine(*admin, epoch);
      }
      response_slots.push_back(
          -static_cast<long long>(inline_lines.size()) - 1);
      inline_lines.push_back(std::move(out));
      continue;
    }
    auto request =
        serve::ParseSolveRequestLine(line, /*num_attributes=*/-1, line_number);
    if (!request.ok()) {
      serve::SolveResponse response;
      response.id = std::to_string(line_number);
      response.status = request.status();
      response_slots.push_back(
          -static_cast<long long>(inline_lines.size()) - 1);
      inline_lines.push_back(serve::ResponseToJson(response).ToString());
      continue;
    }
    response_slots.push_back(static_cast<long long>(futures.size()));
    futures.push_back(service.Submit(std::move(request).value()));
  }

  service.Drain();
  std::vector<serve::SolveResponse> solved;
  solved.reserve(futures.size());
  for (auto& future : futures) solved.push_back(future.get());
  for (long long slot : response_slots) {
    if (slot >= 0) {
      std::cout << serve::ResponseToJson(solved[static_cast<std::size_t>(slot)])
                       .ToString()
                << "\n";
    } else {
      std::cout << inline_lines[static_cast<std::size_t>(-slot - 1)] << "\n";
    }
  }

  if (exporter != nullptr) exporter->Stop();

  if (!HasFlag(argc, argv, "no-metrics")) {
    JsonValue metrics = JsonValue::Object();
    metrics.Set("metrics", service.Metrics().ToJson());
    std::cout << metrics.ToString() << "\n";
  }

  const std::string finish_error = FinishObs(&obs);
  if (!finish_error.empty()) return Fail(finish_error);

  if (!trace_path.empty()) {
    const Status status = recorder.WriteChromeTrace(trace_path);
    if (!status.ok()) return Fail(status.ToString());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace soc;

  if (!GetFlagValues(argc, argv, "tenant").empty() ||
      !GetFlag(argc, argv, "shards", "").empty()) {
    return RunMultiTenant(argc, argv);
  }

  const std::string log_path = GetFlag(argc, argv, "log", "");
  const std::string requests_path = GetFlag(argc, argv, "requests", "");
  if (log_path.empty() || requests_path.empty()) return Usage();

  std::ifstream log_file(log_path, std::ios::binary);
  if (!log_file) return Fail("cannot open " + log_path);
  std::ostringstream log_buffer;
  log_buffer << log_file.rdbuf();
  auto log = QueryLog::FromCsv(log_buffer.str());
  if (!log.ok()) return Fail(log.status().ToString());

  serve::VisibilityServiceOptions options;
  options.num_workers = std::atoi(GetFlag(argc, argv, "workers", "4").c_str());
  options.max_queue = static_cast<std::size_t>(
      std::atoll(GetFlag(argc, argv, "queue", "1024").c_str()));
  options.default_deadline_ms =
      std::atof(GetFlag(argc, argv, "default-deadline-ms", "0").c_str());
  options.reject_expired = HasFlag(argc, argv, "reject-late");
  options.predictive_shedding = !HasFlag(argc, argv, "no-shed");
  options.mfi_cache_capacity = static_cast<std::size_t>(
      std::atoll(GetFlag(argc, argv, "cache-capacity", "32").c_str()));
  if (options.num_workers < 1) return Fail("--workers must be >= 1");
  if (options.mfi_cache_capacity < 1) {
    return Fail("--cache-capacity must be >= 1");
  }

  serve::RetryOptions retry;
  retry.max_retries = std::atoi(GetFlag(argc, argv, "retries", "0").c_str());
  retry.budget_ratio =
      std::atof(GetFlag(argc, argv, "retry-budget", "0.1").c_str());
  if (retry.max_retries < 0) return Fail("--retries must be >= 0");
  if (retry.budget_ratio < 0) return Fail("--retry-budget must be >= 0");

  std::ifstream requests_file;
  std::istream* requests = &std::cin;
  if (requests_path != "-") {
    requests_file.open(requests_path, std::ios::binary);
    if (!requests_file) return Fail("cannot open " + requests_path);
    requests = &requests_file;
  }

  // Declared before the service so it outlives every worker span.
  obs::TraceRecorder recorder;
  const std::string trace_path = GetFlag(argc, argv, "trace-out", "");
  if (!trace_path.empty()) {
    recorder.set_enabled(true);
    options.trace_recorder = &recorder;
  }

  // Declared before the service: workers record into these until the
  // service is destroyed.
  ObsStack obs;
  const std::string obs_error = SetUpObs(argc, argv, &obs);
  if (!obs_error.empty()) return Fail(obs_error);
  options.event_log = obs.event_log.get();
  options.slo_engine = obs.slo.get();

  serve::VisibilityService service(std::move(log).value(), options);
  serve::BatchEngine engine(service, retry);

  // Periodic metrics exposition. The file must outlive the exporter; the
  // exporter (declared after the service) stops before the service dies.
  std::ofstream metrics_file;
  std::unique_ptr<serve::MetricsExporter> exporter;
  const double metrics_interval_ms =
      std::atof(GetFlag(argc, argv, "metrics-interval-ms", "0").c_str());
  if (metrics_interval_ms > 0) {
    serve::MetricsExporter::Options exporter_options;
    exporter_options.interval_s = metrics_interval_ms / 1000.0;
    exporter_options.snapshot_provider = [&service] {
      return service.Metrics();
    };
    const std::string metrics_out = GetFlag(argc, argv, "metrics-out", "");
    if (!metrics_out.empty()) {
      metrics_file.open(metrics_out, std::ios::binary | std::ios::trunc);
      if (!metrics_file) return Fail("cannot open " + metrics_out);
      exporter_options.sink = [&metrics_file](const std::string& page) {
        metrics_file << page << "\n";
        metrics_file.flush();
      };
    } else {
      exporter_options.sink = [](const std::string& page) {
        std::fputs(page.c_str(), stderr);
      };
    }
    exporter =
        std::make_unique<serve::MetricsExporter>(std::move(exporter_options));
  }

  // Parse failures resolve inline (the service never sees them) but keep
  // their slot so output order still matches input order.
  std::vector<serve::SolveResponse> parse_failures;
  std::vector<long long> response_slots;  // >=0: engine index; <0: failure.
  int line_number = 0;
  std::string line;
  while (std::getline(*requests, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    auto request = serve::ParseSolveRequestLine(line, service.log(),
                                               line_number);
    if (!request.ok()) {
      serve::SolveResponse response;
      response.id = std::to_string(line_number);
      response.status = request.status();
      response_slots.push_back(
          -static_cast<long long>(parse_failures.size()) - 1);
      parse_failures.push_back(std::move(response));
      continue;
    }
    response_slots.push_back(static_cast<long long>(engine.pending()));
    engine.Submit(std::move(request).value());
  }

  const std::vector<serve::SolveResponse> solved = engine.Drain();
  for (long long slot : response_slots) {
    const serve::SolveResponse& response =
        slot >= 0 ? solved[static_cast<std::size_t>(slot)]
                  : parse_failures[static_cast<std::size_t>(-slot - 1)];
    std::cout << serve::ResponseToJson(response).ToString() << "\n";
  }

  if (exporter != nullptr) exporter->Stop();  // Flushes a final page.

  if (!HasFlag(argc, argv, "no-metrics")) {
    JsonValue metrics = JsonValue::Object();
    metrics.Set("metrics", service.Metrics().ToJson());
    if (retry.max_retries > 0) {
      // Client-side view: where the retry traffic went.
      const serve::RetryStats& stats = engine.retry_stats();
      JsonValue client = JsonValue::Object();
      client.Set("retries", JsonValue::Int(stats.retries));
      client.Set("recovered", JsonValue::Int(stats.recovered));
      client.Set("budget_denied", JsonValue::Int(stats.budget_denied));
      client.Set("exhausted", JsonValue::Int(stats.exhausted));
      client.Set("retry_tokens_left", JsonValue::Number(engine.retry_tokens()));
      metrics.Set("client", std::move(client));
    }
    std::cout << metrics.ToString() << "\n";
  }

  const std::string finish_error = FinishObs(&obs);
  if (!finish_error.empty()) return Fail(finish_error);

  if (!trace_path.empty()) {
    const Status status = recorder.WriteChromeTrace(trace_path);
    if (!status.ok()) return Fail(status.ToString());
  }
  return 0;
}
