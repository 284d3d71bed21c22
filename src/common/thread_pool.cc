#include "common/thread_pool.h"

#include <atomic>

#include "common/check.h"

namespace vitri {
namespace {

/// The pool whose WorkerLoop runs on this thread (null elsewhere).
thread_local const ThreadPool* current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t count = num_threads == 0 ? 1 : num_threads;
  workers_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  VITRI_CHECK(task != nullptr) << "Submit of an empty task";
  {
    MutexLock lock(mu_);
    VITRI_CHECK(!stop_) << "Submit on a shutting-down ThreadPool";
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  VITRI_CHECK(current_pool != this)
      << "ParallelFor called from one of the same pool's workers (the "
         "caller only waits, so this can deadlock)";
  if (n == 0) return;
  // Per-call completion state lives on the caller's stack: the caller
  // blocks until `remaining` hits zero, so the references the worker
  // tasks capture stay valid for exactly as long as they are used.
  struct ForState {
    std::atomic<size_t> next{0};
    Mutex mu;
    CondVar done;
    size_t remaining VITRI_GUARDED_BY(mu) = 0;
  };
  ForState state;
  const size_t tasks = std::min(workers_.size(), n);
  {
    MutexLock lock(state.mu);
    state.remaining = tasks;
  }
  for (size_t t = 0; t < tasks; ++t) {
    Submit([&state, &body, n] {
      for (size_t i = state.next.fetch_add(1, std::memory_order_relaxed);
           i < n;
           i = state.next.fetch_add(1, std::memory_order_relaxed)) {
        body(i);
      }
      MutexLock lock(state.mu);
      if (--state.remaining == 0) state.done.NotifyOne();
    });
  }
  MutexLock lock(state.mu);
  // Explicit wait loop (not the predicate overload): the thread-safety
  // analysis checks lambda bodies without the caller's lock set, so a
  // predicate reading `remaining` would flag a false positive.
  while (state.remaining != 0) state.done.Wait(lock);
}

size_t ThreadPool::HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

void ThreadPool::WorkerLoop() {
  current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.Wait(lock);
      if (queue_.empty()) return;  // stop_ set and nothing left to drain.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace vitri
