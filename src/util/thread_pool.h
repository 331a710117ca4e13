#ifndef JOINOPT_UTIL_THREAD_POOL_H_
#define JOINOPT_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace joinopt {

/// A reusable fork-join thread pool for the parallel DP variants.
///
/// The pool is built for barrier-structured work: a coordinator thread
/// repeatedly calls Run() with a batch of independent tasks, the pool
/// executes them (the coordinator participates, so a 1-thread pool spawns
/// no workers and degenerates to a plain loop), and Run() returns only
/// when every task of the batch has finished. Between Run() calls the
/// workers sleep on a condition variable — one pool instance serves all
/// size layers of a DP run without re-spawning threads.
///
/// Tasks are claimed dynamically (an atomic task counter), so uneven task
/// costs balance across workers. Task functions must not throw: the
/// library is exception-free, and an exception escaping a worker would
/// terminate the process.
///
/// Thread-safety: Run() must only be called from one coordinator thread
/// at a time (the pool is not a general executor); the task function is
/// called concurrently from multiple threads and must synchronize any
/// shared state itself.
class ThreadPool {
 public:
  /// Creates a pool with `threads` total execution slots (the coordinator
  /// counts as one, so `threads - 1` workers are spawned). `threads < 1`
  /// is clamped to 1.
  explicit ThreadPool(int threads);

  /// Joins all workers. Must not be called while Run() is in flight.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution slots (workers + the coordinator).
  int thread_count() const { return worker_count_ + 1; }

  /// Executes fn(task_index, worker) for every task_index in
  /// [0, task_count), distributing indices dynamically across the workers
  /// and the calling thread. `worker` identifies the executing slot
  /// (coordinator = 0, spawned workers 1..thread_count()-1) so callers can
  /// keep per-worker accumulators without synchronization. The
  /// coordinator always runs task 0 itself (claimed before the workers
  /// wake), so slot 0 runs at least one task of every non-empty batch.
  /// Returns when all tasks have completed. `fn` must not throw.
  void Run(uint64_t task_count,
           const std::function<void(uint64_t, int)>& fn);

  /// The number of threads a caller should use for `requested`:
  /// `requested` itself when positive, otherwise (0 = "auto") the
  /// hardware concurrency, clamped to [1, 256].
  static int ResolveThreadCount(int requested);

 private:
  void WorkerLoop(int worker);
  /// Claims and runs tasks of the current batch until none remain;
  /// returns the number of tasks this thread completed.
  uint64_t DrainTasks(int worker);

  const int worker_count_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  /// Incremented per Run() call; workers wake when it advances.
  uint64_t batch_generation_ = 0;
  uint64_t batch_task_count_ = 0;
  uint64_t batch_tasks_finished_ = 0;
  const std::function<void(uint64_t, int)>* batch_fn_ = nullptr;
  /// Workers inside DrainTasks. The batch fields above change only while
  /// it is 0, so no worker ever claims against a half-replaced batch.
  int draining_ = 0;
  std::atomic<uint64_t> next_task_{0};
  bool shutting_down_ = false;
};

}  // namespace joinopt

#endif  // JOINOPT_UTIL_THREAD_POOL_H_
