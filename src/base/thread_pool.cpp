#include "base/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

#include "base/env.hpp"
#include "base/error.hpp"
#include "base/strings.hpp"

namespace relsched::base {

ThreadPool::ThreadPool(int threads) {
  const int workers = std::max(1, threads) - 1;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const base::MutexLock lk(job_mutex_);
    stopping_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::drain(const std::function<void(int)>& fn, int count) {
  for (int i = next_.fetch_add(1, std::memory_order_relaxed); i < count;
       i = next_.fetch_add(1, std::memory_order_relaxed)) {
    fn(i);
  }
}

void ThreadPool::worker_loop() {
  base::UniqueMutexLock lk(job_mutex_);
  std::uint64_t seen = 0;
  for (;;) {
    // Wait for a live job, not just a new generation: a worker
    // descheduled long enough to miss a generation entirely must not
    // wake into the gap after try_run() retired it (job_fn_ == nullptr)
    // -- it sleeps through and joins the next published job instead.
    // (Spelled as an explicit loop rather than a wait-with-predicate so
    // the thread-safety analysis sees the guarded reads under the lock.)
    while (!stopping_ && !(job_generation_ != seen && job_fn_ != nullptr)) {
      job_cv_.wait(lk);
    }
    if (stopping_) return;
    seen = job_generation_;
    // The other participants already drew every index: nothing to join.
    if (next_.load(std::memory_order_relaxed) >= job_count_) continue;
    const std::function<void(int)>* fn = job_fn_;
    const int count = job_count_;
    ++workers_active_;
    lk.unlock();
    drain(*fn, count);
    lk.lock();
    if (--workers_active_ == 0) done_cv_.notify_one();
  }
}

bool ThreadPool::try_run(int count,
                         const std::function<void(int)>& fn) noexcept {
  if (count <= 0) return true;
  base::UniqueMutexLock lk(job_mutex_);
  // A job is in flight (possibly ours, further up this very call
  // stack): decline, and the caller stays sequential.
  if (job_fn_ != nullptr) return false;
  // No worker is active here (the previous job retired only once
  // workers_active_ reached 0), so the counter can be reset before the
  // job is published.
  next_.store(0, std::memory_order_relaxed);
  job_fn_ = &fn;
  job_count_ = count;
  ++job_generation_;
  job_cv_.notify_all();
  lk.unlock();
  drain(fn, count);
  lk.lock();
  // Every index is drawn; wait for the workers still running theirs.
  // A worker joins only under job_mutex_ while job_fn_ is live, so
  // none can join after this wait has seen zero.
  while (workers_active_ != 0) done_cv_.wait(lk);
  job_fn_ = nullptr;
  return true;
}

void ThreadPool::run(int count, const std::function<void(int)>& fn) noexcept {
  RELSCHED_CHECK(try_run(count, fn), "run() calls must not overlap");
}

int ThreadPool::default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int hardware = hw == 0 ? 1 : static_cast<int>(hw);
  constexpr long long kMaxThreads = 512;
  const long long requested = env_int("RELSCHED_THREADS", hardware);
  if (requested >= 1 && requested <= kMaxThreads) {
    return static_cast<int>(requested);
  }
  // Parsed fine but out of range (env_int already warned otherwise).
  const char* raw = std::getenv("RELSCHED_THREADS");
  detail::warn_bad_value("RELSCHED_THREADS", raw == nullptr ? "" : raw,
                         "an integer in [1, 512]", cat(hardware).c_str());
  return hardware;
}

const std::shared_ptr<ThreadPool>& shared_pool() {
  static const std::shared_ptr<ThreadPool> pool =
      std::make_shared<ThreadPool>(ThreadPool::default_thread_count());
  return pool;
}

}  // namespace relsched::base
