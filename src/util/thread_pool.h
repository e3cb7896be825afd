// A small blocking thread pool with a ParallelFor helper.
//
// The pool parallelizes *functional* simulation work (executing simulated
// thread blocks, CPU-side partitioning). It has no effect on modeled
// timings, which come from src/hw cost models — so results are identical
// on a 1-core laptop and a 64-core server, only wall-clock differs.

#ifndef GJOIN_UTIL_THREAD_POOL_H_
#define GJOIN_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace gjoin::util {

/// \brief Fixed-size pool of worker threads executing queued tasks.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>= 1). A pool of size 1
  /// still runs tasks on a worker thread, preserving execution semantics.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  size_t num_threads() const { return threads_.size(); }

  /// Tasks submitted since construction. Observational only: it shows
  /// which pool a piece of work actually ran on.
  size_t tasks_submitted() const {
    return tasks_submitted_.load(std::memory_order_relaxed);
  }

  /// Enqueues a task for asynchronous execution. Safe to call from
  /// worker threads (nested submission); such tasks are covered by the
  /// next Wait().
  void Submit(std::function<void()> task) GJOIN_EXCLUDES(mu_);

  /// Blocks until every submitted task has finished. If any task exited
  /// with an exception, rethrows the first one here (the pool itself
  /// stays usable). Must not be called from a worker thread.
  void Wait() GJOIN_EXCLUDES(mu_);

  /// Runs fn(i) for i in [0, n), distributing contiguous chunks over the
  /// workers and blocking until all iterations complete. fn must be safe
  /// to call concurrently for distinct i.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Like ParallelFor but hands each worker a [begin, end) range, which is
  /// cheaper when per-iteration work is tiny. The callback additionally
  /// receives the dense worker index in [0, min(n, num_threads())), so
  /// callers with per-worker state never have to reverse-engineer their
  /// identity from the range endpoints.
  void ParallelForRanges(
      size_t n, const std::function<void(size_t, size_t, size_t)>& fn);

  /// Process-wide default pool. Sized to the hardware concurrency, or to
  /// the GJOIN_CPU_THREADS environment variable when set (the TSan CI
  /// lane forces >1 workers on 1-CPU runners so concurrent code paths
  /// are actually interleaved; results are identical either way).
  static ThreadPool* Default();

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::atomic<size_t> tasks_submitted_{0};
  Mutex mu_;
  CondVar cv_task_;
  CondVar cv_done_;
  std::queue<std::function<void()>> queue_ GJOIN_GUARDED_BY(mu_);
  size_t in_flight_ GJOIN_GUARDED_BY(mu_) = 0;
  bool stop_ GJOIN_GUARDED_BY(mu_) = false;
  /// First exception thrown by a task since the last Wait().
  std::exception_ptr task_error_ GJOIN_GUARDED_BY(mu_);
};

}  // namespace gjoin::util

#endif  // GJOIN_UTIL_THREAD_POOL_H_
