#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace at::common {

namespace {

/// Restricts the calling thread to the CPUs in `cpus` (one node's set).
/// Node-wide rather than per-CPU: a worker woken while one of the node's
/// CPUs is busy can run on another instead of waiting for that one.
void pin_current_thread(const std::vector<int>& cpus) {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (int cpu : cpus) {
    if (cpu >= 0 && cpu < CPU_SETSIZE) CPU_SET(cpu, &mask);
  }
  // Best effort: an out-of-mask CPU or a restricted environment leaves the
  // worker unpinned, which only costs locality, never correctness.
  (void)pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask);
#else
  (void)cpus;
#endif
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop({}, i); });
  }
}

ThreadPool::ThreadPool(const std::vector<int>& pin_cpus,
                       std::function<void(std::size_t)> on_worker_start) {
  const std::size_t threads = std::max<std::size_t>(1, pin_cpus.size());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i, pin_cpus, on_worker_start] {
      if (!pin_cpus.empty()) pin_current_thread(pin_cpus);
      worker_loop(on_worker_start, i);
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::function<void(std::size_t)> on_start,
                             std::size_t index) {
  if (on_start) on_start(index);
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) cv_.wait(mutex_);
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

bool ThreadPool::run_one_queued_task() {
  std::function<void()> task;
  {
    MutexLock lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop();
  }
  task();
  return true;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;  // nothing to do; never submit an empty-range task
  // chunks >= 1: the constructor always spawns at least one worker, so the
  // ceil-divide below cannot divide by zero even for n < workers.
  const std::size_t chunks = std::min(n, workers_.size());
  const std::size_t per = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futs;
  futs.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = c * per;
    const std::size_t hi = std::min(n, lo + per);
    if (lo >= hi) break;
    futs.push_back(submit([lo, hi, &fn] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  // Wait for every task before returning (or rethrowing): tasks capture
  // references to fn and this frame, so unwinding on the first exception
  // while siblings still run would leave them with dangling references.
  //
  // While waiting, HELP: execute queued tasks on this thread. This keeps
  // nested parallel_for calls (a pool task fanning out on its own pool)
  // deadlock-free — the blocked caller drains the work its chunks may be
  // queued behind — and costs nothing on the non-nested path because the
  // queue is empty by the time the last chunks finish.
  std::exception_ptr first;
  for (auto& f : futs) {
    while (f.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!run_one_queued_task()) {
        // Queue drained but this chunk is still in flight on another
        // thread; block until it finishes (new tasks queued after this
        // point belong to someone who can still run them).
        f.wait();
        break;
      }
    }
    try {
      f.get();
    } catch (...) {
      if (first == nullptr) first = std::current_exception();
    }
  }
  if (first != nullptr) std::rethrow_exception(first);
}

}  // namespace at::common
