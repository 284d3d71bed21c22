#ifndef VITRI_COMMON_THREAD_POOL_H_
#define VITRI_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/annotated_lock.h"

namespace vitri {

/// Fixed-size thread pool with a FIFO task queue. Deliberately simple —
/// no work stealing, no priorities: the workloads it serves (per-query
/// KNN fan-out, per-video summarization) are embarrassingly parallel
/// batches of similar-sized tasks, so a shared queue is enough.
///
/// Thread-safety: Submit() and ParallelFor() may be called from any
/// thread, including concurrently, except that ParallelFor() must not be
/// called from one of the same pool's workers: its caller only waits, so
/// a busy pool would deadlock, and the call aborts instead (VITRI_CHECK).
/// Tasks must not throw (the library is Status-based; an escaping
/// exception terminates the process) and must not Submit() work they
/// then wait on from inside the pool either. `mu_` guards the task queue
/// and the stop flag; workers hold no other lock while draining.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (0 is clamped to 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues one task for asynchronous execution.
  void Submit(std::function<void()> task) VITRI_EXCLUDES(mu_);

  /// Runs body(i) for every i in [0, n), spread across the workers, and
  /// blocks until all n calls returned. The calling thread only waits;
  /// indices are claimed dynamically, so per-index cost imbalance is
  /// tolerated. Safe to call repeatedly and from several threads at
  /// once; each call is independent. Aborts when called from one of
  /// this pool's own workers (see the class comment).
  void ParallelFor(size_t n, const std::function<void(size_t)>& body)
      VITRI_EXCLUDES(mu_);

  /// std::thread::hardware_concurrency with a floor of 1 (the standard
  /// allows it to report 0).
  static size_t HardwareThreads();

 private:
  void WorkerLoop() VITRI_EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ VITRI_GUARDED_BY(mu_);
  bool stop_ VITRI_GUARDED_BY(mu_) = false;
};

}  // namespace vitri

#endif  // VITRI_COMMON_THREAD_POOL_H_
