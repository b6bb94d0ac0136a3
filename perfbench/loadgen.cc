#include "loadgen.h"

#include <algorithm>
#include <thread>

#include "common/thread_pool.h"
#include "core/solver_registry.h"
#include "serve/protocol.h"

namespace perfbench {
namespace {

using soc::serve::SolveRequest;
using soc::serve::SolveResponse;

double FallbackTier(const SolveResponse& response) {
  for (const auto& [key, value] : response.solution.metrics) {
    if (key == "fallback_tier") return value;
  }
  return -1;
}

// Span names of the serving path, interned once per SpanLog.
struct PathNames {
  int request, parse, submit, wait, encode, read;
  explicit PathNames(SpanLog* spans)
      : request(spans ? spans->Name("loadgen.request") : 0),
        parse(spans ? spans->Name("serve.protocol.ParseSolveRequestLine") : 0),
        submit(spans ? spans->Name("serve.Submit") : 0),
        wait(spans ? spans->Name("serve.future_wait") : 0),
        encode(spans ? spans->Name("serve.protocol.ResponseToJson") : 0),
        read(spans ? spans->Name("serve.protocol.ParseSolveResponseLine")
                   : 0) {}
};

void AddSpan(SpanLog* spans, int name, std::int64_t id, std::int64_t parent,
             std::int64_t request, double start_us, double end_us) {
  spans->Add(Span{name, id, parent, request, start_us, end_us});
}

// The send half of one request: parse the line, submit it. Returns an
// invalid future when the line did not parse (recorded in `outcome`).
std::future<SolveResponse> Send(const Target& target, std::int64_t seq,
                                Outcome* outcome, SpanLog* spans,
                                const PathNames& names, std::int64_t root) {
  const DeckEntry& entry = target.workload->deck[static_cast<std::size_t>(
      seq % static_cast<std::int64_t>(target.workload->deck.size()))];
  if (target.publisher != nullptr && entry.tenant >= 0) {
    outcome->min_epoch =
        static_cast<std::int32_t>(target.publisher->LatestEpoch(entry.tenant));
  }
  const double parse_start = spans ? spans->NowUs() : 0;
  auto request = target.Parse(entry.line, static_cast<int>(seq + 1));
  const double parse_end = spans ? spans->NowUs() : 0;
  if (!request.ok()) {
    outcome->wire_error = Outcome::WireError::kRequest;
    return {};
  }
  std::future<SolveResponse> future = target.Submit(std::move(request).value());
  if (spans) {
    const double submit_end = spans->NowUs();
    AddSpan(spans, names.parse, spans->NewId(), root, seq, parse_start,
            parse_end);
    AddSpan(spans, names.submit, spans->NewId(), root, seq, parse_end,
            submit_end);
  }
  return future;
}

// Fills `outcome` from a response line, as a client reads it.
void ReadBack(const std::string& line, Outcome* outcome) {
  auto parsed = soc::serve::ParseSolveResponseLine(line);
  if (!parsed.ok()) {
    outcome->wire_error = Outcome::WireError::kResponse;
    return;
  }
  const SolveResponse& r = *parsed;
  if (r.status.ok()) {
    outcome->result = Outcome::Result::kOk;
  } else if (r.status.code() == soc::StatusCode::kOverloaded) {
    outcome->result = Outcome::Result::kShed;
  }
  outcome->shed_reason = !r.shed_reason.empty();
  outcome->degraded = r.degraded;
  outcome->fast_path = r.fast_path;
  outcome->cache_hit = r.cache_hit;
  outcome->proved_optimal = r.solution.proved_optimal;
  outcome->satisfied = r.solution.satisfied_queries;
  outcome->epoch = static_cast<std::int32_t>(r.epoch);
  outcome->queue_ms = static_cast<float>(r.queue_ms);
  outcome->solve_ms = static_cast<float>(r.solve_ms);
  outcome->solver = static_cast<std::int8_t>(SolverId(r.solver));
  const soc::DynamicBitset& selected = r.solution.selected;
  outcome->selected_width = static_cast<std::uint16_t>(
      std::min<std::size_t>(selected.size(), 0xFFFF));
  for (std::size_t b = 0; b < std::min<std::size_t>(selected.size(), 64);
       ++b) {
    if (selected.Test(b)) outcome->selected |= std::uint64_t{1} << b;
  }
}

// The receive half: wait, encode, stamp the time this code saw it, read
// the line back. The wait span starts at `wait_start_us` (when Submit
// returned), so it covers the whole time the request was out of this
// code's hands.
void Receive(std::future<SolveResponse> future, Clock::time_point phase_start,
             Outcome* outcome, SpanLog* spans, const PathNames& names,
             std::int64_t root, std::int64_t seq, double wait_start_us) {
  const SolveResponse response = future.get();
  const double encode_start = spans ? spans->NowUs() : 0;
  const std::string line = soc::serve::ResponseToJson(response).ToString();
  outcome->latency_ms = static_cast<float>(
      MillisSince(phase_start, Clock::now()) - outcome->sent_ms);
  const double read_start = spans ? spans->NowUs() : 0;
  outcome->fallback_tier =
      static_cast<std::int8_t>(FallbackTier(response));
  ReadBack(line, outcome);
  if (spans) {
    const double read_end = spans->NowUs();
    AddSpan(spans, names.wait, spans->NewId(), root, seq, wait_start_us,
            encode_start);
    AddSpan(spans, names.encode, spans->NewId(), root, seq, encode_start,
            read_start);
    AddSpan(spans, names.read, spans->NewId(), root, seq, read_start,
            read_end);
  }
}

int DeckIndex(const Target& target, std::int64_t seq) {
  return static_cast<int>(
      seq % static_cast<std::int64_t>(target.workload->deck.size()));
}

}  // namespace

double MillisSince(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(t - origin).count();
}

const std::vector<std::string>& SolverNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> all = soc::RegisteredSolverNames();
    all.push_back("none");
    return all;
  }();
  return names;
}

int SolverId(const std::string& name) {
  const auto& names = SolverNames();
  const auto it = std::find(names.begin(), names.end(), name);
  return it == names.end() ? -1 : static_cast<int>(it - names.begin());
}

// Value-initialising the slots writes every page of them.
OutcomeStore::OutcomeStore(std::size_t capacity) : slots_(capacity) {}

Outcome* OutcomeStore::Claim() {
  const std::size_t slot = next_.fetch_add(1);
  if (slot >= slots_.size()) return nullptr;
  slots_[slot] = Outcome();
  return &slots_[slot];
}

std::size_t OutcomeStore::size() const {
  return std::min(next_.load(), slots_.size());
}

SpanLog::SpanLog() : origin_(Clock::now()) {}

int SpanLog::Name(const std::string& name) {
  soc::MutexLock lock(mutex_);
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<int>(it - names_.begin());
  names_.push_back(name);
  return static_cast<int>(names_.size()) - 1;
}

double SpanLog::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

void SpanLog::Add(Span span) {
  soc::MutexLock lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::Take() {
  soc::MutexLock lock(mutex_);
  return std::move(spans_);
}

Publisher::Publisher(const Workload& workload,
                     soc::tenant::ShardedService* service)
    : workload_(workload),
      service_(service),
      latest_(workload.tenants.size()),
      per_tenant_(workload.tenants.size(), 0) {
  for (std::size_t t = 0; t < latest_.size(); ++t) {
    latest_[t].store(1);
    version_of_[{static_cast<int>(t), 1}] = 0;
  }
}

soc::StatusOr<double> Publisher::PublishNext() {
  int tenant = 0;
  int version = 0;
  {
    soc::MutexLock lock(mutex_);
    tenant = count_++ % static_cast<int>(workload_.tenants.size());
    const TenantSpec& spec = workload_.tenants[static_cast<std::size_t>(tenant)];
    version = ++per_tenant_[static_cast<std::size_t>(tenant)] %
              static_cast<int>(spec.logs.size());
  }
  const TenantSpec& spec = workload_.tenants[static_cast<std::size_t>(tenant)];
  soc::QueryLog log = spec.logs[static_cast<std::size_t>(version)];
  const auto start = Clock::now();
  const auto epoch = service_->PublishEpoch(spec.id, std::move(log));
  const double ms = MillisSince(start, Clock::now());
  if (!epoch.ok()) return epoch.status();
  {
    soc::MutexLock lock(mutex_);
    version_of_[{tenant, *epoch}] = version;
    publish_ms_.push_back(ms);
  }
  latest_[static_cast<std::size_t>(tenant)].store(*epoch);
  return ms;
}

std::int64_t Publisher::LatestEpoch(int tenant) const {
  return latest_[static_cast<std::size_t>(tenant)].load();
}

const soc::QueryLog* Publisher::LogOf(int tenant, std::int64_t epoch) const {
  soc::MutexLock lock(mutex_);
  const auto it = version_of_.find({tenant, epoch});
  if (it == version_of_.end()) return nullptr;
  return &workload_.tenants[static_cast<std::size_t>(tenant)]
              .logs[static_cast<std::size_t>(it->second)];
}

std::vector<double> Publisher::publish_ms() const {
  soc::MutexLock lock(mutex_);
  return publish_ms_;
}

int Publisher::publishes() const {
  soc::MutexLock lock(mutex_);
  return count_;
}

PublishSchedule::PublishSchedule(Publisher* publisher,
                                 const SendCounter* sends, int every,
                                 SpanLog* spans) {
  if (publisher == nullptr || every <= 0) return;
  pool_.Submit([this, publisher, sends, every, spans] {
    const int name = spans ? spans->Name("tenant.PublishEpoch") : 0;
    std::int64_t next_at = (sends->next.load() / every + 1) * every;
    while (!stop_.load()) {
      if (sends->next.load() < next_at) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      next_at += every;
      const double start = spans ? spans->NowUs() : 0;
      const auto published = publisher->PublishNext();
      if (!published.ok()) {
        soc::MutexLock lock(mutex_);
        errors_.push_back("publish: " + published.status().ToString());
      } else if (spans) {
        spans->Add(Span{name, spans->NewId(), 0, -1, start, spans->NowUs()});
      }
    }
  });
}

PublishSchedule::~PublishSchedule() { Stop(); }

std::vector<std::string> PublishSchedule::Stop() {
  stop_.store(true);
  pool_.Shutdown();
  soc::MutexLock lock(mutex_);
  return errors_;
}

soc::StatusOr<SolveRequest> Target::Parse(const std::string& line,
                                          int line_number) const {
  if (single != nullptr) {
    return soc::serve::ParseSolveRequestLine(line, single->log(), line_number);
  }
  // The multi-tenant front door checks widths at admission.
  return soc::serve::ParseSolveRequestLine(line, -1, line_number);
}

std::future<SolveResponse> Target::Submit(SolveRequest request) const {
  return single != nullptr ? single->Submit(std::move(request))
                           : sharded->Submit(std::move(request));
}

soc::serve::MetricsSnapshot Target::Metrics() const {
  return single != nullptr ? single->Metrics() : sharded->Metrics();
}

void Target::Drain() const {
  if (single != nullptr) {
    single->Drain();
  } else {
    sharded->Drain();
  }
}

PhaseResult RunClosedLoop(const Target& target, double seconds, int clients,
                          std::int64_t max_requests, Phase phase,
                          SendCounter* sends, OutcomeStore* store,
                          SpanLog* spans) {
  const PathNames names(spans);
  std::atomic<std::int64_t> sent{0};
  PhaseResult result;
  result.from = store->size();
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  {
    soc::ThreadPool pool(clients);
    for (int c = 0; c < clients; ++c) {
      pool.Submit([&] {
        while (true) {
          if (max_requests > 0 ? sent.fetch_add(1) >= max_requests
                               : Clock::now() >= stop) {
            break;
          }
          Outcome* outcome = store->Claim();
          if (outcome == nullptr) break;
          const std::int64_t seq = sends->next.fetch_add(1);
          outcome->deck_index = DeckIndex(target, seq);
          outcome->phase = phase;
          outcome->sent_ms = MillisSince(start, Clock::now());
          const std::int64_t root = spans ? spans->NewId() : 0;
          const double root_start = spans ? spans->NowUs() : 0;
          auto future = Send(target, seq, outcome, spans, names, root);
          if (future.valid()) {
            const double wait_start = spans ? spans->NowUs() : 0;
            // Poll rather than block: a blocked client's own wake-up, tens
            // of microseconds on a loaded VM and varying with the host,
            // would enter every latency.
            while (future.wait_for(std::chrono::seconds(0)) !=
                   std::future_status::ready) {
              std::this_thread::yield();
            }
            Receive(std::move(future), start, outcome, spans, names, root,
                    seq, wait_start);
          }
          if (spans) {
            AddSpan(spans, names.request, root, 0, seq, root_start,
                    spans->NowUs());
          }
        }
      });
    }
    pool.Shutdown();
  }
  result.elapsed_s = MillisSince(start, Clock::now()) / 1e3;
  result.to = store->size();
  return result;
}

}  // namespace perfbench
