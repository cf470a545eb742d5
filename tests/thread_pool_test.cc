#include "common/thread_pool.h"

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace partminer {
namespace {

// Small busy-wait so tasks overlap long enough for stealing to happen even
// on a machine with few cores.
void SpinFor(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.width(), 4);
    TaskGroup group(&pool);
    for (int i = 0; i < 100; ++i) {
      group.Spawn([&ran]() { ran.fetch_add(1); });
    }
    group.Wait();
    EXPECT_EQ(ran.load(), 100);
  }
}

TEST(ThreadPoolTest, NullPoolRunsInline) {
  // The serial fast path: no pool, Spawn executes immediately on the caller.
  int ran = 0;
  TaskGroup group(nullptr);
  const std::thread::id self = std::this_thread::get_id();
  group.Spawn([&]() {
    ++ran;
    EXPECT_EQ(std::this_thread::get_id(), self);
  });
  EXPECT_EQ(ran, 1);  // Already done, before Wait.
  group.Wait();
}

TEST(ThreadPoolTest, NestedSubmitDoesNotDeadlock) {
  // Recursive fork-join deeper and wider than the pool: every level waits
  // for its children from inside a pool task, which only terminates if
  // waiting workers help execute queued tasks.
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  std::function<void(int)> recurse = [&](int depth) {
    if (depth == 0) {
      leaves.fetch_add(1);
      return;
    }
    TaskGroup group(&pool);
    for (int i = 0; i < 3; ++i) {
      group.Spawn([&recurse, depth]() { recurse(depth - 1); });
    }
    group.Wait();
  };
  TaskGroup root(&pool);
  root.Spawn([&recurse]() { recurse(4); });
  root.Wait();
  EXPECT_EQ(leaves.load(), 3 * 3 * 3 * 3);
  EXPECT_GE(pool.stats().executed.load(), 1 + 3 + 9 + 27 + 81);
}

TEST(ThreadPoolTest, StealsUnderSkewedLoad) {
  // One task fans 200 children into its own worker's deque; the other three
  // workers have empty deques and can only make progress by stealing.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  {
    TaskGroup outer(&pool);
    outer.Spawn([&]() {
      TaskGroup inner(&pool);
      for (int i = 0; i < 200; ++i) {
        inner.Spawn([&ran]() {
          SpinFor(std::chrono::microseconds(200));
          ran.fetch_add(1);
        });
      }
      inner.Wait();
    });
    outer.Wait();
  }
  EXPECT_EQ(ran.load(), 200);
  EXPECT_GT(pool.stats().steals.load(), 0);
  // A steal moves half the victim's queue, so moved >= batches.
  EXPECT_GE(pool.stats().steal_moved_tasks.load(),
            pool.stats().steals.load());
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedWork) {
  // Destroy the pool while tasks are still queued (no TaskGroup, nothing
  // waits): the destructor must run every one of them before joining.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 500; ++i) {
      pool.Submit([&ran]() { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 500);
}

TEST(ThreadPoolTest, ShutdownDrainsTasksSpawnedDuringShutdown) {
  // Tasks that spawn more tasks while the destructor is draining.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&ran, &pool]() {
        ran.fetch_add(1);
        pool.Submit([&ran]() { ran.fetch_add(1); });
      });
    }
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, TryRunOneTaskHelpsFromExternalThread) {
  ThreadPool pool(1);
  // Park the single worker so the queue backs up. Wait until the worker has
  // actually dequeued the parking task — otherwise the external helper
  // below could run it and spin on `release` itself.
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  pool.Submit([&parked, &release]() {
    parked.store(true);
    while (!release.load()) {
      SpinFor(std::chrono::microseconds(50));
    }
  });
  while (!parked.load()) {
    SpinFor(std::chrono::microseconds(50));
  }
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&ran]() { ran.fetch_add(1); });
  }
  // The external caller executes queued tasks itself.
  int helped = 0;
  while (pool.TryRunOneTask()) ++helped;
  EXPECT_GT(helped, 0);
  EXPECT_EQ(ran.load(), helped);
  release.store(true);
}

TEST(ThreadPoolTest, CurrentIdentifiesWorkers) {
  ThreadPool pool(2);
  EXPECT_EQ(ThreadPool::Current(), nullptr);
  std::atomic<int> inside{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 8; ++i) {
    group.Spawn([&]() {
      if (ThreadPool::Current() == &pool) inside.fetch_add(1);
    });
  }
  group.Wait();
  EXPECT_EQ(inside.load(), 8);
}

TEST(ThreadPoolTest, StatsCountSubmissions) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  for (int i = 0; i < 25; ++i) group.Spawn([]() {});
  group.Wait();
  EXPECT_EQ(pool.stats().submitted.load(), 25);
  EXPECT_EQ(pool.stats().executed.load(), 25);
}

cpu_set_t AllowedSet() {
  cpu_set_t set;
  CPU_ZERO(&set);
  EXPECT_EQ(sched_getaffinity(getpid(), sizeof(set), &set), 0);
  return set;
}

/// Runs `width` tasks on `pool` that each hold their worker until all have
/// started, so every worker runs exactly one, and returns each worker's
/// affinity mask.
std::vector<cpu_set_t> WorkerMasks(ThreadPool* pool, int width) {
  std::atomic<int> started{0};
  std::mutex mu;
  std::vector<cpu_set_t> masks;
  TaskGroup group(pool);
  for (int i = 0; i < width; ++i) {
    group.Spawn([&]() {
      started.fetch_add(1);
      while (started.load() < width) std::this_thread::yield();
      cpu_set_t mask;
      CPU_ZERO(&mask);
      pthread_getaffinity_np(pthread_self(), sizeof(mask), &mask);
      std::lock_guard<std::mutex> lock(mu);
      masks.push_back(mask);
    });
  }
  group.Wait();
  return masks;
}

TEST(ThreadPoolTest, PinsWorkersToDistinctAllowedCpus) {
  cpu_set_t allowed = AllowedSet();
  const int width = std::min(CPU_COUNT(&allowed), 4);
  ThreadPool pool(width);
  std::set<int> cpus;
  for (cpu_set_t& mask : WorkerMasks(&pool, width)) {
    ASSERT_EQ(CPU_COUNT(&mask), 1);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &mask)) continue;
      EXPECT_TRUE(CPU_ISSET(cpu, &allowed)) << "cpu " << cpu;
      cpus.insert(cpu);
    }
  }
  EXPECT_EQ(cpus.size(), static_cast<size_t>(width));
}

TEST(ThreadPoolTest, PoolWiderThanTheCpusRunsUnpinnedAndDrains) {
  cpu_set_t allowed = AllowedSet();
  const int cpus = CPU_COUNT(&allowed);
  if (cpus > 60) GTEST_SKIP() << "keeps the pool small: " << cpus << " cpus";
  const int width = std::max(8, cpus + 1);
  std::atomic<int> ran{0};
  {
    ThreadPool pool(width);
    for (cpu_set_t& mask : WorkerMasks(&pool, width)) {
      EXPECT_TRUE(CPU_EQUAL(&mask, &allowed));
    }
    for (int i = 0; i < 500; ++i) {
      pool.Submit([&]() { ran.fetch_add(1); });
    }
  }  // Drains.
  EXPECT_EQ(ran.load(), 500);
}

}  // namespace
}  // namespace partminer
