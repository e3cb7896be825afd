#include "src/util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

namespace gjoin::util {

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  cv_task_.NotifyAll();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  tasks_submitted_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lock(&mu_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.NotifyOne();
}

void ThreadPool::Wait() {
  std::exception_ptr error;
  {
    MutexLock lock(&mu_);
    while (in_flight_ != 0) cv_done_.Wait(&mu_);
    error = std::exchange(task_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!stop_ && queue_.empty()) cv_task_.Wait(&mu_);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      // The library itself is exception-free (util::Status), but user
      // callbacks (test assertions, std::bad_alloc) may throw; letting
      // that escape the worker would std::terminate the process.
      // Capture the first one and surface it from Wait().
      error = std::current_exception();
    }
    {
      MutexLock lock(&mu_);
      if (error && !task_error_) task_error_ = error;
      if (--in_flight_ == 0) cv_done_.NotifyAll();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  ParallelForRanges(n, [&fn](size_t /*worker*/, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) fn(i);
  });
}

void ThreadPool::ParallelForRanges(
    size_t n, const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  const size_t workers = std::min(n, num_threads());
  const size_t chunk = (n + workers - 1) / workers;
  for (size_t w = 0; w < workers; ++w) {
    const size_t begin = w * chunk;
    const size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    Submit([&fn, w, begin, end] { fn(w, begin, end); });
  }
  Wait();
}

ThreadPool* ThreadPool::Default() {
  static ThreadPool* pool = [] {
    size_t threads = std::max(1u, std::thread::hardware_concurrency());
    if (const char* env = std::getenv("GJOIN_CPU_THREADS")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed >= 1 && parsed <= 256) threads = static_cast<size_t>(parsed);
    }
    return new ThreadPool(threads);
  }();
  return pool;
}

}  // namespace gjoin::util
