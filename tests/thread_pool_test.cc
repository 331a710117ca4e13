#include "util/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace joinopt {
namespace {

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  constexpr uint64_t kTasks = 10000;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.Run(kTasks, [&](uint64_t task, int /*worker*/) {
    hits[task].fetch_add(1, std::memory_order_relaxed);
  });
  for (uint64_t t = 0; t < kTasks; ++t) {
    ASSERT_EQ(hits[t].load(), 1) << "task " << t;
  }
}

TEST(ThreadPoolTest, WorkerIndicesStayInRange) {
  ThreadPool pool(3);
  std::atomic<int> min_worker{1 << 30};
  std::atomic<int> max_worker{-1};
  pool.Run(5000, [&](uint64_t /*task*/, int worker) {
    int seen = min_worker.load(std::memory_order_relaxed);
    while (worker < seen &&
           !min_worker.compare_exchange_weak(seen, worker)) {
    }
    seen = max_worker.load(std::memory_order_relaxed);
    while (worker > seen &&
           !max_worker.compare_exchange_weak(seen, worker)) {
    }
  });
  EXPECT_GE(min_worker.load(), 0);
  EXPECT_LT(max_worker.load(), pool.thread_count());
  // The coordinator claims task 0 before the workers wake, so slot 0
  // always runs something.
  EXPECT_EQ(min_worker.load(), 0);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsEverythingOnCoordinator) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  std::atomic<uint64_t> done{0};
  bool off_coordinator = false;
  pool.Run(100, [&](uint64_t /*task*/, int worker) {
    if (worker != 0) {
      off_coordinator = true;
    }
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 100u);
  EXPECT_FALSE(off_coordinator);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossBatches) {
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  for (int batch = 0; batch < 20; ++batch) {
    pool.Run(batch * 37, [&](uint64_t /*task*/, int /*worker*/) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  uint64_t expected = 0;
  for (int batch = 0; batch < 20; ++batch) {
    expected += static_cast<uint64_t>(batch) * 37;
  }
  EXPECT_EQ(total.load(), expected);
}

/// Many tiny back-to-back batches: a worker that wakes for a batch only
/// after it completed must not claim an index of the next one, which
/// would run a task twice (or through the finished batch's function)
/// and break Run's completion count.
TEST(ThreadPoolTest, TinyBatchesRunEachTaskExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  for (int batch = 0; batch < 20000; ++batch) {
    const uint64_t tasks = 1 + batch % 4;
    for (std::atomic<int>& hit : hits) {
      hit.store(0, std::memory_order_relaxed);
    }
    pool.Run(tasks, [&](uint64_t task, int /*worker*/) {
      hits[task].fetch_add(1, std::memory_order_relaxed);
    });
    for (uint64_t t = 0; t < hits.size(); ++t) {
      ASSERT_EQ(hits[t].load(), t < tasks ? 1 : 0)
          << "batch " << batch << " task " << t;
    }
  }
}

TEST(ThreadPoolTest, EmptyBatchReturnsWithoutCallingFn) {
  ThreadPool pool(2);
  bool called = false;
  pool.Run(0, [&](uint64_t /*task*/, int /*worker*/) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, NonPositiveThreadCountClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1);
  ThreadPool negative(-7);
  EXPECT_EQ(negative.thread_count(), 1);
}

TEST(ThreadPoolTest, ResolveThreadCountClamps) {
  EXPECT_EQ(ThreadPool::ResolveThreadCount(5), 5);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(256), 256);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(1000), 256);
  // 0 = auto: whatever the machine reports, clamped into range.
  const int resolved = ThreadPool::ResolveThreadCount(0);
  EXPECT_GE(resolved, 1);
  EXPECT_LE(resolved, 256);
  EXPECT_GE(ThreadPool::ResolveThreadCount(-1), 1);
}

}  // namespace
}  // namespace joinopt
