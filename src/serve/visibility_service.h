// VisibilityService: the long-lived, concurrent serving layer for
// SOC-CB-QL. One service owns one query log (the paper's Q), a
// PreprocessingCache amortizing MFI mining and attribute bitmaps across
// requests, and a fixed ThreadPool of solver workers.
//
// Admission control. Submit() is non-blocking and always returns a
// future:
//  * malformed requests (wrong tuple width, negative m / deadline,
//    unknown solver) resolve immediately with a typed error Status;
//  * when the request queue is at max_queue, the request is load-shed
//    with StatusCode::kOverloaded — it never occupies a worker;
//  * cost-aware predictive shedding: a per-solver CostModel predicts the
//    request's queue wait and solve time; a request whose deadline the
//    prediction says cannot be met is shed at admission with kOverloaded,
//    a shed_reason, and a retry_after_ms hint sized to the backlog —
//    instead of expiring uselessly in the queue;
//  * accepted requests wait in an earliest-deadline-first queue
//    (serve/edf_queue.h): workers always pick the most urgent request,
//    with FIFO order among equal (and absent) deadlines;
//  * each request's deadline (deadline_ms, measured from Submit) is
//    threaded into the worker's SolveContext, so a long solve degrades
//    to a partial solution per the core contract instead of running
//    away;
//  * a request whose deadline has already expired when a worker picks it
//    up is either rejected with kOverloaded (reject_expired = true) or
//    downgraded to the FallbackSolver under the expired context
//    (default), whose greedy tier completes in microseconds — late work
//    never stalls the pool on an unbounded exact solve.
//
// Overload resilience at pickup:
//  * a DegradationLadder watches smoothed queue occupancy and, under
//    sustained pressure, downgrades exact tiers (level 1) or everything
//    but the greedies (level 2) to Fallback;
//  * per-solver CircuitBreakers (serve/circuit_breaker.h) trip a tier to
//    Fallback after consecutive faults/deadline-degrades and probe
//    recovery half-open;
//  * a Watchdog (serve/watchdog.h) cancels solves wedged past a hard
//    wall-time multiple of their deadline via the context's cancel flag.
//
// Responses carry the solution plus serving metadata (queue/solve
// latency, degradation, which solver actually ran; sheds carry
// shed_reason and retry_after_ms). All outcomes are counted in a
// ServeMetrics registry (serve/metrics.h).
//
// Thread-safety: Submit/Drain/MetricsSnapshot may be called from any
// thread. Drain() waits for every accepted request to resolve; the
// destructor drains implicitly.

#ifndef SOC_SERVE_VISIBILITY_SERVICE_H_
#define SOC_SERVE_VISIBILITY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>

#include "boolean/query_log.h"
#include "common/bitset.h"
#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/solve_context.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/mfi_solver.h"
#include "core/solver.h"
#include "obs/event_log.h"
#include "obs/slo.h"
#include "obs/trace_recorder.h"
#include "serve/circuit_breaker.h"
#include "serve/cost_model.h"
#include "serve/degradation_ladder.h"
#include "serve/edf_queue.h"
#include "serve/metrics.h"
#include "serve/preprocessing_cache.h"
#include "serve/watchdog.h"

namespace soc::serve {

struct SolveRequest {
  std::string id;          // Echoed back; free-form.
  DynamicBitset tuple;     // Width must equal the log's attribute count.
  int m = 0;
  std::string solver = "Fallback";  // A RegisteredSolverNames() entry.
  double deadline_ms = 0;  // Per-request budget from Submit; 0 = default.
  // Multi-tenant routing (tenant/sharded_service.h). Empty on the
  // single-tenant VisibilityService path, where it is ignored; the
  // sharded service requires it. Non-empty, <= 128 bytes (protocol.cc
  // enforces both on the wire).
  std::string tenant_id;
};

// Canonical shed_reason values carried on kOverloaded responses.
inline constexpr char kShedReasonQueueFull[] = "queue_full";
inline constexpr char kShedReasonPredicted[] = "predicted_deadline_miss";
inline constexpr char kShedReasonExpired[] = "deadline_expired";
inline constexpr char kShedReasonShutdown[] = "shutdown";

struct SolveResponse {
  std::string id;
  std::string solver;      // Solver that actually ran (may be downgraded).
  Status status;           // OK, or kOverloaded / kInvalidArgument / ...
  SocSolution solution;    // Meaningful iff status.ok().
  bool degraded = false;
  StopReason stop_reason = StopReason::kNone;
  bool fast_path = false;  // Answered from the bitmap index, no solver.
  double queue_ms = 0;     // Submit → worker pickup.
  double solve_ms = 0;     // Worker pickup → response.
  // kOverloaded guidance: when to retry (0 = no hint) and why the
  // request was shed (one of the kShedReason* constants; empty
  // otherwise).
  double retry_after_ms = 0;
  std::string shed_reason;
  // Multi-tenant serving metadata. tenant_id echoes the request's;
  // epoch is the snapshot epoch the answer was computed against (> 0
  // only on the sharded path); cache_hit marks answers replayed from
  // the ResultCache without running a solver.
  std::string tenant_id;
  std::int64_t epoch = 0;
  bool cache_hit = false;
  // Observability-only outcome bits (wide-event log; never on the wire
  // protocol): whether a tripped breaker or the degradation ladder
  // changed the solver this request ran on.
  bool breaker_rerouted = false;
  bool ladder_downgraded = false;
};

// Chaos/test injection point, invoked on the worker thread after the
// late/fast-path tiers and solver selection (ladder + breaker reroutes
// applied), immediately before the solver runs. A non-OK return is
// treated as a fault of the *effective* solver — it feeds the breaker
// and the solver.<name>.errors counters exactly like a real solve error.
// The hook may also stall (slow-worker injection) or call
// context->InjectFault; it must be thread-safe.
struct WorkerHookContext {
  const SolveRequest& request;
  const std::string& solver;  // Effective solver about to run.
  SolveContext* context;
  // The watchdog's cancel flag for this solve; nullptr when unmonitored.
  const std::atomic<bool>* watchdog_flag;
};
using WorkerHook = std::function<Status(const WorkerHookContext&)>;

struct VisibilityServiceOptions {
  int num_workers = 4;
  // Admission bound on queued-but-unclaimed requests; 0 = unbounded.
  std::size_t max_queue = 1024;
  // Per-engine LRU capacity of the shared MFI threshold cache.
  std::size_t mfi_cache_capacity = 32;
  // Applied when a request's deadline_ms is 0; 0 = no deadline.
  double default_deadline_ms = 0;
  // Late policy: reject already-expired requests with kOverloaded instead
  // of degrading them through the Fallback tier.
  bool reject_expired = false;
  // Cost-aware admission: shed a request at Submit when the cost model
  // predicts its deadline cannot be met (see the file comment). Disable
  // to fall back to pure queue-bound admission.
  bool predictive_shedding = true;
  CostModelOptions cost_model;
  CircuitBreakerOptions breaker;
  DegradationLadderOptions ladder;
  WatchdogOptions watchdog;
  // Non-owning; must outlive the service. When set and enabled, every
  // request emits nested admission → queue_wait → solve → response spans
  // (plus solver-internal phases via the context's PhaseListener).
  // nullptr disables tracing entirely.
  obs::TraceRecorder* trace_recorder = nullptr;
  // Non-owning; must outlive the service. When set and enabled, every
  // request outcome (completions, sheds, rejects) is recorded as one
  // wide event (obs/wide_event.h) carrying the request's features,
  // latencies and outcome bits. nullptr disables event logging.
  obs::EventLog* event_log = nullptr;
  // Non-owning; must outlive the service. When set, every non-invalid
  // outcome is recorded against the request's tenant ("default" when
  // the request carries no tenant_id) for burn-rate evaluation.
  obs::SloEngine* slo_engine = nullptr;
  // See WorkerHookContext; empty disables the hook.
  WorkerHook worker_hook;
};

class VisibilityService {
 public:
  // The service copies the log once and shares it with every worker.
  explicit VisibilityService(QueryLog log,
                             VisibilityServiceOptions options = {});
  ~VisibilityService();

  VisibilityService(const VisibilityService&) = delete;
  VisibilityService& operator=(const VisibilityService&) = delete;

  // Non-blocking; see the admission-control contract above.
  std::future<SolveResponse> Submit(SolveRequest request)
      SOC_EXCLUDES(inflight_mutex_, queue_mutex_);

  // Blocks until every accepted request has resolved. New Submits during
  // Drain are legal; Drain returns once the in-flight count hits zero.
  void Drain() SOC_EXCLUDES(inflight_mutex_);

  const QueryLog& log() const { return log_; }
  int num_workers() const { return pool_.num_threads(); }

  // Live counters (incl. MFI cache hit/miss/eviction totals) plus
  // point-in-time gauges: queue depth, busy workers, in-flight requests,
  // cache residency, breaker states, ladder level, predicted backlog,
  // and cumulative pool queue-wait/execute time.
  MetricsSnapshot Metrics() const
      SOC_EXCLUDES(inflight_mutex_, queue_mutex_);

 private:
  struct QueuedRequest;

  void RunOne() SOC_EXCLUDES(queue_mutex_);
  SolveResponse Execute(QueuedRequest& queued);
  void Finish(std::shared_ptr<QueuedRequest> queued, SolveResponse response)
      SOC_EXCLUDES(inflight_mutex_);
  std::size_t QueueSize() const SOC_EXCLUDES(queue_mutex_);
  // Records the wide event and SLO outcome for one resolved request;
  // called on every path that resolves a promise.
  void RecordOutcome(const SolveRequest& request,
                     const SolveResponse& response, double deadline_ms,
                     double predicted_ms);

  const QueryLog log_;
  const VisibilityServiceOptions options_;
  PreprocessingCache cache_;
  // Registered solver instances, built once; SocSolver::SolveWithContext
  // is const, so one instance serves all workers.
  std::unordered_map<std::string, std::unique_ptr<SocSolver>> solvers_;
  // Dedicated MFI solver instances whose solves run against the shared
  // preprocessing cache instead of mining per request.
  MfiSocSolver mfi_walk_solver_;
  MfiSocSolver mfi_dfs_solver_;
  ServeMetrics metrics_;
  CostModel cost_model_;
  BreakerPanel breakers_;
  DegradationLadder ladder_;

  mutable Mutex queue_mutex_{lock_rank::kServeQueue};
  EdfQueue<std::shared_ptr<QueuedRequest>> edf_queue_
      SOC_GUARDED_BY(queue_mutex_);

  mutable Mutex inflight_mutex_{lock_rank::kServeInflight};
  CondVar inflight_cv_;
  std::int64_t inflight_ SOC_GUARDED_BY(inflight_mutex_) = 0;

  Watchdog watchdog_;  // Before pool_: workers hold watchdog tickets.
  ThreadPool pool_;  // Last member: workers must die before state above.
};

}  // namespace soc::serve

#endif  // SOC_SERVE_VISIBILITY_SERVICE_H_
