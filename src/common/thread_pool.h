// Minimal fixed-size thread pool with a parallel_for helper.
//
// Used by the synopsis builder (the paper runs information aggregation on
// Spark; we run the same per-aggregated-point tasks on a shared-memory
// pool) and by benchmark drivers that evaluate many requests concurrently.
// The sharded execution layer (sharded_executor.h) builds one pinned pool
// per topology node from the pinning constructor.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace at::common {

class ThreadPool {
 public:
  /// threads == 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Spawns one worker per entry of `pin_cpus`, each restricted (best
  /// effort — a failed sched_setaffinity is ignored, non-Linux builds never
  /// pin) to the set of CPUs listed. The same CPU may appear repeatedly
  /// (simulated multi-node layouts on small machines). When
  /// `on_worker_start` is set it runs first inside each new worker thread,
  /// with the worker's index; the executor uses it to label workers with
  /// their home node.
  explicit ThreadPool(const std::vector<int>& pin_cpus,
                      std::function<void(std::size_t)> on_worker_start = {});

  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; the returned future observes its completion/exception.
  template <typename F>
  std::future<void> submit(F&& fn) {
    auto task =
        std::make_shared<std::packaged_task<void()>>(std::forward<F>(fn));
    std::future<void> fut = task->get_future();
    {
      MutexLock lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs fn(i) for i in [0, n) across the pool; blocks until all complete.
  /// Work is divided into contiguous chunks (one per worker) to preserve
  /// cache locality on scans.
  ///
  /// Reentrant: while waiting for its chunks, the calling thread executes
  /// queued tasks. A task running ON the pool may therefore call
  /// parallel_for on the same pool without deadlocking, even on a
  /// one-worker pool — the sharded fan-out paths rely on this (a per-node
  /// dispatch task fans its component work out on its own node group).
  ///
  /// Edge behavior (pinned by tests/common_test.cpp): n == 0 returns
  /// without touching the queue; n < workers submits exactly n
  /// single-index tasks (never an empty-range task); chunk math divides by
  /// min(n, workers), which the constructor's >= 1 worker guarantee keeps
  /// nonzero for every n > 0.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop(std::function<void(std::size_t)> on_start,
                   std::size_t index);
  /// Pops and runs one queued task if any is pending. Used by waiting
  /// parallel_for callers to help drain the queue.
  bool run_one_queued_task();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar cv_;
  std::queue<std::function<void()>> queue_ AT_GUARDED_BY(mutex_);
  bool stopping_ AT_GUARDED_BY(mutex_) = false;
};

}  // namespace at::common
