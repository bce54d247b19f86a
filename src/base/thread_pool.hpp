// Thread pool for batches of index tasks.
//
// The pool serves two workloads that must share one set of workers:
// the explorer's batch of independent candidate resolves, and the
// per-anchor row sharding inside anchor analysis (cold compute and
// warm patching). Both are batches of index tasks with widely varying
// costs: a candidate whose dirty cone covers the design -- or an
// anchor whose cone covers the graph -- takes orders of magnitude
// longer than one touching a leaf. Static partitioning would leave
// threads idle behind one slow shard, so every participant draws the
// next index from one shared atomic counter until the batch is
// exhausted: a thread stuck on a slow task simply draws fewer.
//
// A pool of width n runs n - 1 workers, and the thread that calls
// run() is the n-th participant: it draws from the same counter
// instead of idling until the batch completes. A width-1 pool
// therefore starts no thread at all and runs every task inline, in
// index order. Completion is batched: each worker reports back once
// per job, not once per task, so the only lock taken per job is the
// hand-off itself. That hand-off state carries RELSCHED_GUARDED_BY
// annotations, so unlocked access is a compile error under the clang
// -Wthread-safety CI leg.
//
// run() is synchronous and the pool is reusable: workers persist
// across run() calls, parked on a condition variable between jobs.
// try_run() is the composable entry point: it declines (returns
// false) instead of deadlocking when a job is already in flight, so a
// resolve that is itself running inside a pool task -- an explorer
// candidate, say -- falls back to its sequential path rather than
// nesting. One pool, no oversubscription.
//
// Tasks must not throw. run() and try_run() are noexcept, so a throw
// from a task on the calling thread terminates the process exactly as
// one on a worker thread does, instead of unwinding while workers
// still hold the task function.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "base/mutex.hpp"
#include "base/thread_annotations.hpp"

namespace relsched::base {

class ThreadPool {
 public:
  /// A pool of width `threads` (>= 1; clamped): spawns threads - 1
  /// workers, the caller of run() being the last participant.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The pool's width: its workers plus the calling thread.
  [[nodiscard]] int thread_count() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Runs fn(0), ..., fn(count - 1) across the workers and the calling
  /// thread and blocks until every call has returned. fn must not
  /// throw. Calls must not be nested or concurrent: one that is fails
  /// its check and, being noexcept, terminates the process (use
  /// try_run() where that can happen).
  void run(int count, const std::function<void(int)>& fn) noexcept
      RELSCHED_EXCLUDES(job_mutex_);

  /// Like run(), but declines instead of asserting when another job is
  /// already in flight: returns false without executing anything, and
  /// the caller runs its loop inline. This is what makes one process-
  /// wide pool safe to share between the explorer's candidate batches
  /// and the anchor analysis running *inside* each candidate -- the
  /// inner call sees the pool busy and stays sequential. Returns true
  /// after all tasks ran (an empty batch trivially succeeds).
  [[nodiscard]] bool try_run(int count,
                             const std::function<void(int)>& fn) noexcept
      RELSCHED_EXCLUDES(job_mutex_);

  /// Pool width for this process: hardware_concurrency(), overridden /
  /// clamped by RELSCHED_THREADS (strict parse; unparsable or
  /// out-of-range values warn once on stderr and fall back).
  [[nodiscard]] static int default_thread_count();

 private:
  void worker_loop() RELSCHED_EXCLUDES(job_mutex_);
  /// Runs tasks drawn from next_ until the batch is exhausted.
  void drain(const std::function<void(int)>& fn, int count);

  std::vector<std::thread> workers_;

  // Job hand-off: try_run() publishes (fn, count, generation) under
  // job_mutex_; workers wake on job_cv_, drain, and report back on
  // done_cv_ once each.
  base::Mutex job_mutex_;
  std::condition_variable_any job_cv_;
  std::condition_variable_any done_cv_;
  const std::function<void(int)>* job_fn_ RELSCHED_GUARDED_BY(job_mutex_) =
      nullptr;
  int job_count_ RELSCHED_GUARDED_BY(job_mutex_) = 0;
  std::uint64_t job_generation_ RELSCHED_GUARDED_BY(job_mutex_) = 0;
  int workers_active_ RELSCHED_GUARDED_BY(job_mutex_) = 0;
  bool stopping_ RELSCHED_GUARDED_BY(job_mutex_) = false;
  /// The next task index to run; reset under job_mutex_ while no job
  /// is in flight.
  std::atomic<int> next_{0};
};

/// The process-wide pool, created on first use with
/// default_thread_count() width. Sessions resolve on it by default
/// and the explorer shares it with the analyses inside its candidates
/// (via try_run's decline-when-busy contract), so no combination of
/// callers oversubscribes the machine.
[[nodiscard]] const std::shared_ptr<ThreadPool>& shared_pool();

}  // namespace relsched::base
