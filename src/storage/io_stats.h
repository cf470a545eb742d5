#ifndef PARTMINER_STORAGE_IO_STATS_H_
#define PARTMINER_STORAGE_IO_STATS_H_

#include <atomic>
#include <cstdint>

namespace partminer {

/// I/O counters for the paged storage layer. The disk-based baseline's cost
/// profile (index build, rebuild on update, page churn during scans) is
/// reported through these.
///
/// Counters are atomic so the BufferPool and concurrent DiskManager
/// callers can bump them without a lock while keeping the totals exact;
/// reads convert implicitly, so `stats().page_reads` keeps working.
struct IoStats {
  std::atomic<int64_t> page_reads{0};    // Pages read from the backing file.
  std::atomic<int64_t> page_writes{0};   // Pages written to the backing file.
  std::atomic<int64_t> pool_hits{0};     // Fetches served from the pool.
  std::atomic<int64_t> pool_misses{0};   // Fetches that hit the disk manager.
  std::atomic<int64_t> evictions{0};     // Frames reclaimed by the LRU policy.
  std::atomic<int64_t> injected_faults{0};  // Faults delivered by injection.

  void Reset() {
    page_reads.store(0, std::memory_order_relaxed);
    page_writes.store(0, std::memory_order_relaxed);
    pool_hits.store(0, std::memory_order_relaxed);
    pool_misses.store(0, std::memory_order_relaxed);
    evictions.store(0, std::memory_order_relaxed);
    injected_faults.store(0, std::memory_order_relaxed);
  }

  double HitRate() const {
    const int64_t hits = pool_hits.load(std::memory_order_relaxed);
    const int64_t total = hits + pool_misses.load(std::memory_order_relaxed);
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

}  // namespace partminer

#endif  // PARTMINER_STORAGE_IO_STATS_H_
