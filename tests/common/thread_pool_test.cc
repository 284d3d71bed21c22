#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace vitri {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4u);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<bool> ran{false};
  pool.ParallelFor(1, [&ran](size_t) { ran = true; });
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&hits](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForWithFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::mutex mu;
  std::set<size_t> seen;
  pool.ParallelFor(3, [&](size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(i);
  });
  EXPECT_EQ(seen, (std::set<size_t>{0, 1, 2}));
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsANoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "body must not run"; });
}

TEST(ThreadPoolTest, PoolIsReusableAcrossParallelFors) {
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 10; ++round) {
    pool.ParallelFor(100, [&total](size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 1000u);
}

TEST(ThreadPoolTest, ParallelForRunsConcurrently) {
  // With 4 workers and 4 tasks that each wait for every other task to
  // have started, completion proves genuine concurrency (a sequential
  // executor would deadlock; the generous timeout keeps CI safe).
  ThreadPool pool(4);
  std::atomic<int> started{0};
  std::atomic<bool> timed_out{false};
  pool.ParallelFor(4, [&](size_t) {
    ++started;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (started.load() < 4 && !timed_out.load()) {
      if (std::chrono::steady_clock::now() > deadline) timed_out = true;
      std::this_thread::yield();
    }
  });
  EXPECT_FALSE(timed_out.load());
  EXPECT_EQ(started.load(), 4);
}

TEST(ThreadPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1u);
}

TEST(ThreadPoolTest, ParallelForFromAnotherPoolsWorkerRuns) {
  // Only a pool's own workers are refused: a task of one pool may fan
  // out over a second pool and wait on it.
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<size_t> total{0};
  outer.ParallelFor(2, [&](size_t) {
    inner.ParallelFor(10, [&total](size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 20u);
}

TEST(ThreadPoolTest, ParallelForFromItsOwnWorkerDies) {
  // The caller of ParallelFor only waits, so a worker calling it on its
  // own pool could wait on tasks no free worker will run. That call
  // fails fast instead of hanging.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        pool.ParallelFor(1, [&pool](size_t) {
          pool.ParallelFor(1, [](size_t) {});
        });
      },
      "ParallelFor called from one of the same pool's workers");
}

}  // namespace
}  // namespace vitri
