#include "util/thread_pool.h"

#include <cassert>

namespace dtdevolve::util {

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) threads = 1;
  size_ = threads;
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  std::vector<std::thread> workers;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_) return;  // idempotent
    stopping_ = true;
    workers.swap(workers_);
  }
  task_ready_.notify_all();
  // Workers drain the queue before exiting, so every submitted task
  // still runs.
  for (std::thread& worker : workers) worker.join();
  size_ = 0;
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_) {
      lock.unlock();
      assert(false && "ThreadPool::Submit after Shutdown");
      task();  // release builds: run inline rather than drop the work
      return;
    }
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

size_t ThreadPool::DefaultJobs() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  if (n == 0) return;
  const size_t workers = size() < n ? size() : n;
  if (workers == 0) {  // pool already shut down: degrade to inline
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // Per-call completion tracking instead of the pool-wide Wait():
  // several callers (one per tenant shard) share one pool, and a global
  // drain barrier would let one caller's batch block on another's.
  std::atomic<size_t> next{0};
  std::mutex done_mutex;
  std::condition_variable done_cv;
  size_t remaining = workers;
  for (size_t w = 0; w < workers; ++w) {
    Submit([&next, &body, n, &done_mutex, &done_cv, &remaining] {
      for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        body(i);
      }
      std::unique_lock<std::mutex> lock(done_mutex);
      if (--remaining == 0) done_cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&remaining] { return remaining == 0; });
}

}  // namespace dtdevolve::util
