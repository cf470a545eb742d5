#include "common/thread_pool.h"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"

namespace partminer {

namespace {

/// Worker identity of the calling thread: the pool it belongs to and its
/// queue index, used to route Submit to the local deque and to let
/// TaskGroup::Wait decide between helping and blocking.
thread_local ThreadPool* tls_pool = nullptr;
thread_local int tls_worker_index = -1;

/// The CPUs the process may run on, ascending; empty when unknown.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(getpid(), sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

}  // namespace

ThreadPool* ThreadPool::Current() { return tls_pool; }

ThreadPool::ThreadPool(int threads) {
  PM_CHECK_GT(threads, 0);
  queues_.reserve(threads);
  for (int i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  const std::vector<int> cpus = AllowedCpus();
  const bool pin = static_cast<size_t>(threads) <= cpus.size();
  workers_.reserve(threads);
  for (int i = 0; i < threads; ++i) {
    const int cpu = pin ? cpus[i] : -1;
    workers_.emplace_back([this, i, cpu]() { WorkerLoop(i, cpu); });
  }
  PM_METRIC_GAUGE("pool.width")->Set(threads);
}

ThreadPool::~ThreadPool() {
  stopping_.store(true, std::memory_order_release);
  idle_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  // Drain semantics: workers only exit once every queue is empty, so any
  // task submitted before (or spawned during) shutdown has run.
  PM_CHECK_EQ(queued_.load(std::memory_order_acquire), 0);
}

void ThreadPool::Submit(std::function<void()> fn) {
  int target;
  if (tls_pool == this) {
    target = tls_worker_index;  // Local LIFO push: depth-first, cache-warm.
  } else {
    target = static_cast<int>(next_queue_.fetch_add(
                 1, std::memory_order_relaxed) %
             queues_.size());
  }
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(fn));
  }
  queued_.fetch_add(1, std::memory_order_release);
  stats_.submitted.fetch_add(1, std::memory_order_relaxed);
  PM_METRIC_COUNTER("pool.tasks_submitted")->Increment();
  idle_cv_.notify_one();
}

bool ThreadPool::Dequeue(int self, std::function<void()>* out) {
  const int n = static_cast<int>(queues_.size());
  // Own deque, newest first.
  if (self >= 0) {
    WorkerQueue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      *out = std::move(own.tasks.back());
      own.tasks.pop_back();
      queued_.fetch_sub(1, std::memory_order_release);
      return true;
    }
  }
  // Steal: take the front half of the first non-empty victim. The front
  // holds the oldest tasks — in a mining fan-out those are the widest
  // subtrees, so half the victim's queue is a meaningful chunk of work.
  const int start = self >= 0 ? self + 1 : 0;
  for (int k = 0; k < n; ++k) {
    const int victim = (start + k) % n;
    if (victim == self) continue;
    std::deque<std::function<void()>> batch;
    {
      WorkerQueue& vq = *queues_[victim];
      std::lock_guard<std::mutex> lock(vq.mu);
      const size_t size = vq.tasks.size();
      if (size == 0) continue;
      const size_t take = (size + 1) / 2;
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(vq.tasks.front()));
        vq.tasks.pop_front();
      }
    }
    // First stolen task runs now; the rest go to the thief's own deque
    // (external callers have none and run tasks one steal at a time).
    *out = std::move(batch.front());
    batch.pop_front();
    queued_.fetch_sub(1, std::memory_order_release);
    stats_.steals.fetch_add(1, std::memory_order_relaxed);
    stats_.steal_moved_tasks.fetch_add(
        static_cast<int64_t>(batch.size()) + 1, std::memory_order_relaxed);
    PM_METRIC_COUNTER("pool.steals")->Increment();
    PM_METRIC_COUNTER("pool.steal_moved_tasks")
        ->Add(static_cast<int64_t>(batch.size()) + 1);
    if (!batch.empty()) {
      if (self >= 0) {
        WorkerQueue& own = *queues_[self];
        std::lock_guard<std::mutex> lock(own.mu);
        for (auto& task : batch) own.tasks.push_back(std::move(task));
      } else {
        WorkerQueue& vq = *queues_[victim];
        std::lock_guard<std::mutex> lock(vq.mu);
        for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
          vq.tasks.push_front(std::move(*it));
        }
      }
      idle_cv_.notify_one();  // Re-queued work may interest an idle worker.
    }
    return true;
  }
  return false;
}

bool ThreadPool::TryRunOneTask() {
  std::function<void()> task;
  const int self = tls_pool == this ? tls_worker_index : -1;
  if (!Dequeue(self, &task)) return false;
  // Count before running: a TaskGroup waiter can return the instant the
  // final task body finishes, and must then observe the full tally.
  stats_.executed.fetch_add(1, std::memory_order_relaxed);
  PM_METRIC_COUNTER("pool.tasks_executed")->Increment();
  task();
  return true;
}

void ThreadPool::WorkerLoop(int index, int cpu) {
  if (cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }
  tls_pool = this;
  tls_worker_index = index;
  std::function<void()> task;
  while (true) {
    if (Dequeue(index, &task)) {
      stats_.executed.fetch_add(1, std::memory_order_relaxed);
      PM_METRIC_COUNTER("pool.tasks_executed")->Increment();
      task();
      task = nullptr;  // Release captures before sleeping.
      continue;
    }
    if (stopping_.load(std::memory_order_acquire) &&
        queued_.load(std::memory_order_acquire) == 0) {
      break;
    }
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait_for(lock, std::chrono::milliseconds(1), [this]() {
      return queued_.load(std::memory_order_acquire) > 0 ||
             stopping_.load(std::memory_order_acquire);
    });
  }
  tls_pool = nullptr;
  tls_worker_index = -1;
}

void TaskGroup::Spawn(std::function<void()> fn) {
  if (pool_ == nullptr) {
    fn();  // Serial fast path: no pool, no task, no synchronization.
    return;
  }
  pending_.fetch_add(1, std::memory_order_release);
  pool_->Submit([this, fn = std::move(fn)]() {
    fn();
    // The decrement happens under mu_ so that a waiter can only observe
    // pending == 0 while the completing task is outside this critical
    // section — otherwise Wait could return (and the group be destroyed)
    // between the decrement and the notify.
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      cv_.notify_all();
    }
  });
}

void TaskGroup::Wait() {
  if (pool_ == nullptr) return;
  if (ThreadPool::Current() == pool_) {
    // A worker waiting for its children keeps the pool busy: run its own
    // queue (which holds exactly those children, LIFO) or steal. The timed
    // wait covers the race where work appears between a failed dequeue and
    // the sleep — 1ms of worst-case latency instead of a lost wakeup.
    while (pending_.load(std::memory_order_acquire) > 0) {
      if (pool_->TryRunOneTask()) continue;
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(1), [this]() {
        return pending_.load(std::memory_order_acquire) == 0;
      });
    }
    // Synchronize with the last task's locked notify block before letting
    // the caller destroy this group.
    std::lock_guard<std::mutex> lock(mu_);
    return;
  }
  // External waiter (e.g. PartMiner's driver thread): block, so the pool
  // width stays the exact mining parallelism.
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this]() {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace partminer
