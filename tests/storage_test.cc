#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fault_injector.h"

namespace partminer {
namespace {

std::string TempPath(const char* tag) {
  return std::string("/tmp/partminer_storage_test_") + tag + "_" +
         std::to_string(::getpid());
}

/// Allocates a pinned page, asserting success.
char* MustAllocate(BufferPool* pool, PageId* id) {
  char* frame = nullptr;
  const Status status = pool->Allocate(id, &frame);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(frame, nullptr);
  return frame;
}

/// Fetches a pinned page, asserting success.
char* MustFetch(BufferPool* pool, PageId id) {
  char* frame = nullptr;
  const Status status = pool->Fetch(id, &frame);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(frame, nullptr);
  return frame;
}

PageId MustAllocatePage(DiskManager* disk) {
  PageId id = kInvalidPageId;
  EXPECT_TRUE(disk->Allocate(&id).ok());
  return id;
}

TEST(DiskManagerTest, RoundTripPages) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(TempPath("rt")).ok());
  const PageId a = MustAllocatePage(&disk);
  const PageId b = MustAllocatePage(&disk);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);

  char write_buf[kPageSize];
  char read_buf[kPageSize];
  std::memset(write_buf, 0xAB, kPageSize);
  ASSERT_TRUE(disk.WritePage(b, write_buf).ok());
  ASSERT_TRUE(disk.ReadPage(b, read_buf).ok());
  EXPECT_EQ(std::memcmp(write_buf, read_buf, kPageSize), 0);

  // Never-written page reads as zeros.
  ASSERT_TRUE(disk.ReadPage(a, read_buf).ok());
  for (int i = 0; i < kPageSize; ++i) ASSERT_EQ(read_buf[i], 0) << i;
  EXPECT_EQ(disk.stats().page_reads, 2);
  EXPECT_EQ(disk.stats().page_writes, 1);
}

TEST(DiskManagerTest, ResetDropsPages) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(TempPath("reset")).ok());
  MustAllocatePage(&disk);
  MustAllocatePage(&disk);
  EXPECT_EQ(disk.page_count(), 2);
  ASSERT_TRUE(disk.Reset().ok());
  EXPECT_EQ(disk.page_count(), 0);
}

TEST(DiskManagerTest, InjectedFaultsSurfaceAsIoError) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(TempPath("inject")).ok());
  FaultInjector injector;
  disk.set_fault_injector(&injector);

  const PageId page = MustAllocatePage(&disk);
  char buf[kPageSize] = {};

  injector.FailOnce(FaultInjector::Op::kRead, 0);
  const Status read = disk.ReadPage(page, buf);
  EXPECT_EQ(read.code(), Status::Code::kIoError);
  EXPECT_NE(read.message().find("injected read fault"), std::string::npos)
      << read.ToString();
  EXPECT_TRUE(disk.ReadPage(page, buf).ok());  // Fault was one-shot.

  injector.FailOnce(FaultInjector::Op::kWrite, 0);
  EXPECT_EQ(disk.WritePage(page, buf).code(), Status::Code::kIoError);
  EXPECT_TRUE(disk.WritePage(page, buf).ok());

  injector.FailOnce(FaultInjector::Op::kAlloc, 0);
  PageId id = 0;
  EXPECT_EQ(disk.Allocate(&id).code(), Status::Code::kIoError);
  EXPECT_EQ(id, kInvalidPageId);
  EXPECT_TRUE(disk.Allocate(&id).ok());

  EXPECT_EQ(disk.stats().injected_faults, 3);
  disk.set_fault_injector(nullptr);
}

TEST(FaultInjectorTest, SchedulesAreDeterministic) {
  // Same seed and probability: two injectors agree on every decision.
  FaultInjector a(42), b(42);
  a.SetProbability(FaultInjector::Op::kRead, 0.3);
  b.SetProbability(FaultInjector::Op::kRead, 0.3);
  int faults = 0;
  for (int i = 0; i < 200; ++i) {
    const bool fa = a.ShouldFail(FaultInjector::Op::kRead);
    EXPECT_EQ(fa, b.ShouldFail(FaultInjector::Op::kRead)) << i;
    faults += fa ? 1 : 0;
  }
  EXPECT_GT(faults, 20);   // ~60 expected.
  EXPECT_LT(faults, 120);
  EXPECT_EQ(a.operations(FaultInjector::Op::kRead), 200);
  EXPECT_EQ(a.injected(FaultInjector::Op::kRead), faults);
}

TEST(FaultInjectorTest, FailNWindowAndReset) {
  FaultInjector injector;
  injector.FailN(FaultInjector::Op::kWrite, 2, 3);
  int pattern = 0;
  for (int i = 0; i < 8; ++i) {
    pattern = pattern * 2 +
              (injector.ShouldFail(FaultInjector::Op::kWrite) ? 1 : 0);
  }
  EXPECT_EQ(pattern, 0b00111000);
  injector.FailN(FaultInjector::Op::kWrite, 0, 1);
  injector.Reset();
  EXPECT_FALSE(injector.ShouldFail(FaultInjector::Op::kWrite));
  EXPECT_EQ(injector.total_injected(), 3);
}

TEST(BufferPoolTest, FetchCachesPages) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(TempPath("cache")).ok());
  BufferPool pool(&disk, 4);

  PageId id;
  char* data = MustAllocate(&pool, &id);
  data[0] = 42;
  pool.Unpin(id, /*dirty=*/true);

  // Cached fetch: no disk read.
  const int64_t reads_before = disk.stats().page_reads;
  char* again = MustFetch(&pool, id);
  EXPECT_EQ(again[0], 42);
  EXPECT_EQ(disk.stats().page_reads, reads_before);
  pool.Unpin(id, false);
  EXPECT_GT(disk.stats().pool_hits, 0);
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(TempPath("evict")).ok());
  BufferPool pool(&disk, 2);

  // Fill three pages through a two-frame pool.
  PageId ids[3];
  for (int i = 0; i < 3; ++i) {
    char* data = MustAllocate(&pool, &ids[i]);
    data[0] = static_cast<char>(i + 1);
    pool.Unpin(ids[i], true);
  }
  EXPECT_GT(disk.stats().evictions, 0);
  EXPECT_GT(disk.stats().page_writes, 0);

  // Page 0 was evicted; fetching it re-reads the written-back contents.
  char* data = MustFetch(&pool, ids[0]);
  EXPECT_EQ(data[0], 1);
  pool.Unpin(ids[0], false);
  EXPECT_GT(disk.stats().page_reads, 0);
}

TEST(BufferPoolTest, AllPinnedIsResourceExhausted) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(TempPath("pinned")).ok());
  BufferPool pool(&disk, 2);
  PageId a, b, c;
  char* frame = nullptr;
  MustAllocate(&pool, &a);
  MustAllocate(&pool, &b);
  const Status full = pool.Allocate(&c, &frame);
  EXPECT_EQ(full.code(), Status::Code::kResourceExhausted);
  EXPECT_EQ(frame, nullptr);
  pool.Unpin(a, false);
  MustAllocate(&pool, &c);  // LRU frame reclaimed.
}

TEST(BufferPoolTest, EvictionWriteFaultLosesNothing) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(TempPath("evfault")).ok());
  FaultInjector injector;
  BufferPool pool(&disk, 1);

  PageId dirty;
  char* data = MustAllocate(&pool, &dirty);
  data[0] = 77;
  pool.Unpin(dirty, /*dirty=*/true);

  // Every write fails: the eviction write-back surfaces the error and must
  // leave the dirty page cached and intact.
  disk.set_fault_injector(&injector);
  injector.SetProbability(FaultInjector::Op::kWrite, 1.0);
  PageId fresh;
  char* frame = nullptr;
  const Status evict = pool.Allocate(&fresh, &frame);
  EXPECT_EQ(evict.code(), Status::Code::kIoError);
  EXPECT_NE(evict.message().find("injected write fault"), std::string::npos)
      << evict.ToString();

  // Heal the disk: the page is still cached with its data, and a flush
  // now persists it.
  disk.set_fault_injector(nullptr);
  char* survived = MustFetch(&pool, dirty);
  EXPECT_EQ(survived[0], 77);
  pool.Unpin(dirty, false);
  EXPECT_TRUE(pool.FlushAll().ok());
  pool.Clear();
  char* reread = MustFetch(&pool, dirty);
  EXPECT_EQ(reread[0], 77);
  pool.Unpin(dirty, false);
}

TEST(BufferPoolTest, FailedReadDoesNotCacheGarbage) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(TempPath("readfault")).ok());
  FaultInjector injector;
  BufferPool pool(&disk, 2);

  PageId id;
  char* data = MustAllocate(&pool, &id);
  data[0] = 11;
  pool.Unpin(id, true);
  ASSERT_TRUE(pool.FlushAll().ok());
  pool.Clear();

  disk.set_fault_injector(&injector);
  injector.FailOnce(FaultInjector::Op::kRead, 0);
  char* frame = nullptr;
  const Status failed = pool.Fetch(id, &frame);
  EXPECT_EQ(failed.code(), Status::Code::kIoError);
  EXPECT_EQ(frame, nullptr);

  // The failed fetch must not have installed anything: the retry re-reads
  // from disk and sees the real data.
  const int64_t reads_before = disk.stats().page_reads;
  char* retry = MustFetch(&pool, id);
  EXPECT_EQ(retry[0], 11);
  EXPECT_EQ(disk.stats().page_reads, reads_before + 1);
  pool.Unpin(id, false);
  disk.set_fault_injector(nullptr);
}

TEST(BufferPoolTest, PinnedPagesSurviveEvictionPressure) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(TempPath("pin2")).ok());
  BufferPool pool(&disk, 2);
  PageId pinned;
  char* data = MustAllocate(&pool, &pinned);
  data[7] = 99;

  // Churn the other frame.
  for (int i = 0; i < 5; ++i) {
    PageId id;
    MustAllocate(&pool, &id);
    pool.Unpin(id, true);
  }
  EXPECT_EQ(data[7], 99);  // Still resident and intact.
  pool.Unpin(pinned, true);
}

TEST(BufferPoolTest, ConcurrentFetchesKeepStatsExact) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(TempPath("conc")).ok());
  constexpr int kPages = 16;
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  BufferPool pool(&disk, kPages);

  PageId ids[kPages];
  for (int i = 0; i < kPages; ++i) {
    char* data = MustAllocate(&pool, &ids[i]);
    std::memset(data, i + 1, kPageSize);
    pool.Unpin(ids[i], true);
  }
  const int64_t hits_before = disk.stats().pool_hits;
  const int64_t misses_before = disk.stats().pool_misses;

  std::atomic<int> corrupt{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      for (int r = 0; r < kRounds; ++r) {
        const int i = (r * (t + 1)) % kPages;
        char* data = nullptr;
        if (!pool.Fetch(ids[i], &data).ok() || data == nullptr ||
            data[0] != static_cast<char>(i + 1) ||
            data[kPageSize - 1] != static_cast<char>(i + 1)) {
          corrupt.fetch_add(1);
        }
        if (data != nullptr) pool.Unpin(ids[i], false);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(corrupt.load(), 0);
  // Every page stayed resident (capacity == working set), so every fetch
  // was a hit and the atomic counters account for each one exactly.
  EXPECT_EQ(disk.stats().pool_hits - hits_before, kThreads * kRounds);
  EXPECT_EQ(disk.stats().pool_misses, misses_before);
}

TEST(BufferPoolTest, ConcurrentFetchesUnderInjectedFaultsStayConsistent) {
  // Probabilistic read faults while many workers fetch: every failure must
  // be a clean Status and every success must return intact data.
  DiskManager disk;
  ASSERT_TRUE(disk.Open(TempPath("concfault")).ok());
  constexpr int kPages = 32;
  constexpr int kThreads = 8;
  constexpr int kRounds = 150;
  BufferPool pool(&disk, 4);  // Tiny pool: constant eviction.

  PageId ids[kPages];
  for (int i = 0; i < kPages; ++i) {
    char* data = MustAllocate(&pool, &ids[i]);
    std::memset(data, i + 1, kPageSize);
    pool.Unpin(ids[i], true);
  }
  ASSERT_TRUE(pool.FlushAll().ok());

  FaultInjector injector(7);
  injector.SetProbability(FaultInjector::Op::kRead, 0.05);
  injector.SetProbability(FaultInjector::Op::kWrite, 0.05);
  disk.set_fault_injector(&injector);

  std::atomic<int> corrupt{0};
  std::atomic<int> clean_failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      for (int r = 0; r < kRounds; ++r) {
        const int i = (r * (t + 3)) % kPages;
        char* data = nullptr;
        const Status status = pool.Fetch(ids[i], &data);
        if (!status.ok()) {
          clean_failures.fetch_add(1);
          if (data != nullptr) corrupt.fetch_add(1);  // Contract violation.
          continue;
        }
        if (data == nullptr || data[0] != static_cast<char>(i + 1) ||
            data[kPageSize - 1] != static_cast<char>(i + 1)) {
          corrupt.fetch_add(1);
        }
        if (data != nullptr) pool.Unpin(ids[i], false);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  disk.set_fault_injector(nullptr);
  EXPECT_EQ(corrupt.load(), 0);
  EXPECT_GT(clean_failures.load(), 0);  // p=0.05 over ~1000 misses.
}

TEST(BufferPoolTest, ClearResetsFrames) {
  DiskManager disk;
  ASSERT_TRUE(disk.Open(TempPath("clear")).ok());
  BufferPool pool(&disk, 2);
  PageId a;
  MustAllocate(&pool, &a);
  pool.Unpin(a, true);
  ASSERT_TRUE(pool.FlushAll().ok());
  pool.Clear();
  // After Clear, fetching re-reads from disk.
  const int64_t reads_before = disk.stats().page_reads;
  MustFetch(&pool, a);
  EXPECT_EQ(disk.stats().page_reads, reads_before + 1);
  pool.Unpin(a, false);
}

}  // namespace
}  // namespace partminer
