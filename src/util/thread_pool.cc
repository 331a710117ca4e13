#include "util/thread_pool.h"

namespace joinopt {

ThreadPool::ThreadPool(int threads)
    : worker_count_(threads < 1 ? 0 : threads - 1) {
  workers_.reserve(worker_count_);
  for (int i = 0; i < worker_count_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

int ThreadPool::ResolveThreadCount(int requested) {
  int resolved = requested;
  if (resolved <= 0) {
    resolved = static_cast<int>(std::thread::hardware_concurrency());
  }
  if (resolved < 1) {
    resolved = 1;
  }
  if (resolved > 256) {
    resolved = 256;
  }
  return resolved;
}

uint64_t ThreadPool::DrainTasks(int worker) {
  uint64_t done = 0;
  for (;;) {
    const uint64_t task = next_task_.fetch_add(1, std::memory_order_relaxed);
    if (task >= batch_task_count_) {
      return done;
    }
    (*batch_fn_)(task, worker);
    ++done;
  }
}

void ThreadPool::WorkerLoop(int worker) {
  uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] {
        return shutting_down_ || batch_generation_ != seen_generation;
      });
      if (shutting_down_) {
        return;
      }
      seen_generation = batch_generation_;
      ++draining_;
    }
    const uint64_t done = DrainTasks(worker);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      batch_tasks_finished_ += done;
      --draining_;
      if (batch_tasks_finished_ == batch_task_count_ || draining_ == 0) {
        batch_done_.notify_all();
      }
    }
  }
}

void ThreadPool::Run(uint64_t task_count,
                     const std::function<void(uint64_t, int)>& fn) {
  if (task_count == 0) {
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // A worker that woke for the previous batch only after it completed
    // may still be inside DrainTasks, about to claim an index. Resetting
    // the batch under it would let it run a task of this batch twice, or
    // through a stale function: wait until it has left.
    batch_done_.wait(lock, [&] { return draining_ == 0; });
    batch_task_count_ = task_count;
    batch_tasks_finished_ = 0;
    batch_fn_ = &fn;
    // Task 0 is the coordinator's, claimed before any worker wakes.
    next_task_.store(1, std::memory_order_relaxed);
    ++batch_generation_;
  }
  work_ready_.notify_all();
  fn(0, 0);
  const uint64_t done = 1 + DrainTasks(0);
  std::unique_lock<std::mutex> lock(mutex_);
  batch_tasks_finished_ += done;
  batch_done_.wait(lock,
                   [&] { return batch_tasks_finished_ == batch_task_count_; });
  batch_fn_ = nullptr;
}

}  // namespace joinopt
