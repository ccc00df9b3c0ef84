#ifndef DTDEVOLVE_UTIL_THREAD_POOL_H_
#define DTDEVOLVE_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dtdevolve::util {

/// A small fixed-size worker pool for data-parallel sections (batch
/// classification is the first user). Tasks are plain `void()` closures;
/// exceptions escaping a task terminate (tasks are expected to capture
/// and report their own errors).
///
/// Thread-safety: `Submit` and `Wait` may be called from any thread;
/// destruction waits for queued tasks to finish. One pool is meant to be
/// shared across many rounds of work — the ingest server reuses a single
/// pool for every batch, every post-evolution re-scoring and every
/// accept, so no round spawns threads: `Wait` is reusable and idempotent.
class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count; 0 once `Shutdown` has run.
  size_t size() const { return size_; }

  /// Enqueues a task for execution on some worker. Submitting after
  /// `Shutdown` is a programming error: it asserts in debug builds and
  /// degrades to running the task inline on the caller in release
  /// builds, so work is never silently dropped.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has completed. Safe to
  /// call repeatedly (a second `Wait` with no new work returns
  /// immediately) and after `Shutdown` (no-op).
  void Wait();

  /// Drains every queued task, joins the workers and leaves the pool
  /// empty (`size() == 0`). Idempotent; called by the destructor. After
  /// shutdown the pool degrades gracefully: `Submit` runs inline (see
  /// above), `ParallelFor` runs inline, `Wait` returns immediately.
  void Shutdown();

  /// Runs `body(i)` for every i in [0, n) on this pool's workers and
  /// blocks until all iterations finished. Completion is tracked per
  /// call (not via the pool-wide `Wait`), so several threads may run
  /// independent `ParallelFor`s on one shared pool concurrently without
  /// blocking on each other's work. Iterations are claimed dynamically
  /// from a shared counter; `body` must be safe to call concurrently
  /// for distinct `i`.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  /// A sensible default worker count: the hardware concurrency, with a
  /// floor of 1 (hardware_concurrency may report 0).
  static size_t DefaultJobs();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  // queued + currently running tasks
  bool stopping_ = false;
  std::atomic<size_t> size_{0};  // drops to 0 on Shutdown
  std::vector<std::thread> workers_;
};

}  // namespace dtdevolve::util

#endif  // DTDEVOLVE_UTIL_THREAD_POOL_H_
