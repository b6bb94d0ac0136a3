// A fixed-size worker thread pool with a condition-variable task queue.
//
// Workers pop std::function<void()> tasks in FIFO order. The pool is the
// execution substrate of the serving layer (tenant/shard.h):
// admission control and queue bounds live in the *caller* — the pool
// itself never rejects work before shutdown, so a caller that wants a
// bounded queue checks queue_depth() first.
//
// Shutdown contract: Shutdown() (also run by the destructor) stops intake,
// lets the workers drain every task already queued, then joins. Submitting
// after shutdown returns false and drops the task. Tasks must not block on
// the pool itself (no Submit-and-wait from a worker), or drain can
// deadlock.
//
// Exception policy: the library is no-throw by convention (Status-based),
// but a defective task must not take the worker thread or the process
// down with it. Workers catch everything, count the failure
// (tasks_failed()) and keep serving.
//
// Locking discipline is enforced at compile time by Clang Thread Safety
// Analysis (common/thread_annotations.h): every mutable member is
// SOC_GUARDED_BY(mutex_).

#ifndef SOC_COMMON_THREAD_POOL_H_
#define SOC_COMMON_THREAD_POOL_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace soc {

class ThreadPool {
 public:
  // Starts `num_threads` workers immediately (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  // Joins the workers after draining the queue.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Returns false (dropping the task) iff Shutdown() has
  // already begun.
  bool Submit(std::function<void()> task) SOC_EXCLUDES(mutex_);

  // Stops intake, drains already-queued tasks and joins the workers.
  // Idempotent; safe to call concurrently with Submit.
  void Shutdown() SOC_EXCLUDES(mutex_);

  int num_threads() const { return num_threads_; }

  // Tasks currently queued but not yet claimed by a worker.
  std::size_t queue_depth() const SOC_EXCLUDES(mutex_);

  // Tasks that ran to completion (including ones that threw).
  std::int64_t tasks_completed() const SOC_EXCLUDES(mutex_);
  // Tasks whose callable threw; always <= tasks_completed().
  std::int64_t tasks_failed() const SOC_EXCLUDES(mutex_);

  // Cumulative milliseconds tasks spent queued before a worker claimed
  // them. Queue wait ends at claim time, so a long-running task inflates
  // its successors' wait, not its own execute time.
  double total_queue_wait_ms() const SOC_EXCLUDES(mutex_);
  // Cumulative milliseconds workers spent inside task callables.
  double total_execute_ms() const SOC_EXCLUDES(mutex_);
  // Workers currently inside a task callable (gauge, 0..num_threads).
  int busy_workers() const SOC_EXCLUDES(mutex_);

 private:
  struct QueuedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  void WorkerLoop() SOC_EXCLUDES(mutex_);

  int num_threads_ = 0;  // Immutable after construction.
  mutable Mutex mutex_{lock_rank::kThreadPool};
  CondVar wake_workers_;
  // Signals the completion of the one Shutdown call that won the
  // worker-joining race, so every other Shutdown call can honor the
  // "returns only after drain + join" contract instead of returning
  // early while workers still run.
  CondVar shutdown_done_;
  std::deque<QueuedTask> queue_ SOC_GUARDED_BY(mutex_);
  bool shutting_down_ SOC_GUARDED_BY(mutex_) = false;
  bool joined_ SOC_GUARDED_BY(mutex_) = false;
  std::int64_t tasks_completed_ SOC_GUARDED_BY(mutex_) = 0;
  std::int64_t tasks_failed_ SOC_GUARDED_BY(mutex_) = 0;
  double total_queue_wait_ms_ SOC_GUARDED_BY(mutex_) = 0;
  double total_execute_ms_ SOC_GUARDED_BY(mutex_) = 0;
  int busy_workers_ SOC_GUARDED_BY(mutex_) = 0;
  std::vector<std::thread> workers_ SOC_GUARDED_BY(mutex_);
};

}  // namespace soc

#endif  // SOC_COMMON_THREAD_POOL_H_
