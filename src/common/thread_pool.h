#ifndef PARTMINER_COMMON_THREAD_POOL_H_
#define PARTMINER_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace partminer {

/// Work-stealing thread pool shared by the mining pipeline: PartMiner's unit
/// scheduling and the gSpan/Gaston subtree fan-out submit into the same
/// pool, so one heavy unit no longer serializes a run — its extension
/// subtrees spill onto whichever workers are idle.
///
/// Design (see DESIGN.md "Parallel execution model"):
///  - One deque per worker. A worker pushes and pops its own deque at the
///    back (LIFO, cache-warm); thieves take from the front (FIFO, the oldest
///    and typically largest subtrees) and carry *half* the victim's queue
///    away in one locking, so a skewed producer is unloaded in O(log n)
///    steals rather than one task at a time.
///  - Recursive-submit-safe: a task may spawn subtree tasks into the pool it
///    runs on and wait for them with TaskGroup::Wait, which *helps* — the
///    waiting worker keeps executing queued tasks (its own first, then
///    steals) instead of blocking, so nested fork-join never deadlocks and
///    never idles a core.
///  - Shutdown drains: the destructor completes every task already
///    submitted (including tasks those tasks spawn) before joining.
///  - Pinned when it fits: worker i runs only on the i-th CPU of the
///    process's allowed set whenever the pool is no wider than that set. A
///    guest scheduler can otherwise stack runnable workers on one vCPU,
///    which turns a pool into pure overhead (DESIGN.md §9). A wider pool is
///    left to the scheduler.
///
/// Counters are published through the obs registry: pool.tasks_submitted,
/// pool.tasks_executed, pool.steals, pool.steal_moved_tasks.
class ThreadPool {
 public:
  /// Spawns `threads` (>= 1) workers.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int width() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `fn`. From a worker of this pool the task lands on that
  /// worker's own deque (LIFO); external submissions are spread round-robin.
  /// Must not be called after the destructor has begun.
  void Submit(std::function<void()> fn);

  /// Runs one queued task on the calling thread if any is available
  /// (own deque first when called from a worker, then stealing). Returns
  /// false when every deque was empty at the time of the scan.
  bool TryRunOneTask();

  /// Pool whose worker thread is the caller, or nullptr.
  static ThreadPool* Current();

  /// Lifetime totals for tests and introspection (mirrors the obs
  /// counters, but per-pool).
  struct Stats {
    std::atomic<int64_t> submitted{0};
    std::atomic<int64_t> executed{0};
    std::atomic<int64_t> steals{0};            // Successful steal batches.
    std::atomic<int64_t> steal_moved_tasks{0};  // Tasks moved by steals.
  };
  const Stats& stats() const { return stats_; }

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  /// Runs worker `index`, pinned to `cpu` unless it is -1.
  void WorkerLoop(int index, int cpu);
  /// Dequeues one task: own back, else steal-half from another queue.
  /// `self` is the caller's worker index, or -1 for external threads.
  bool Dequeue(int self, std::function<void()>* out);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  Stats stats_;

  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::atomic<int64_t> queued_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<uint32_t> next_queue_{0};  // Round-robin for external submits.
};

/// Structured fork-join over a ThreadPool: Spawn() tasks, then Wait() for
/// all of them. With a null pool every Spawn runs inline, which is the
/// serial fast path — callers write one code path for both modes.
///
/// Wait() from a worker of the pool helps execute queued tasks (required
/// for nested fan-out); Wait() from any other thread blocks, so pool width
/// is exactly the number of mining threads.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Spawn(std::function<void()> fn);
  void Wait();

 private:
  ThreadPool* pool_;
  std::atomic<int64_t> pending_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace partminer

#endif  // PARTMINER_COMMON_THREAD_POOL_H_
