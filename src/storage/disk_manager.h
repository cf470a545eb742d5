#ifndef PARTMINER_STORAGE_DISK_MANAGER_H_
#define PARTMINER_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "storage/fault_injector.h"
#include "storage/io_stats.h"

namespace partminer {

/// Page size of the storage layer. 4 KiB, the usual unit of database I/O.
constexpr int kPageSize = 4096;

using PageId = int32_t;
constexpr PageId kInvalidPageId = -1;

/// File-backed page store. Pages are allocated append-only; reads and writes
/// go through pread/pwrite on a real file, so the disk-based baseline pays
/// real system-call and file-cache costs.
class DiskManager {
 public:
  DiskManager() = default;
  ~DiskManager();

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Opens (creating or truncating) the backing file.
  Status Open(const std::string& path);

  /// Closes and removes the backing file.
  void Close();

  bool is_open() const { return fd_ >= 0; }
  int page_count() const {
    return page_count_.load(std::memory_order_acquire);
  }

  /// Allocates a fresh zero page; sets `*id`. Fails only under fault
  /// injection (page allocation models file growth, which can fail on a
  /// real device); `*id` is kInvalidPageId on failure.
  Status Allocate(PageId* id);

  /// Reads page `id` into `out` (kPageSize bytes).
  Status ReadPage(PageId id, char* out);

  /// Writes kPageSize bytes from `data` to page `id`.
  Status WritePage(PageId id, const char* data);

  /// Drops all pages (file truncated); used by index rebuilds.
  Status Reset();

  const IoStats& stats() const { return stats_; }
  IoStats* mutable_stats() { return &stats_; }

  /// Simulated per-page access latency in microseconds, busy-waited on each
  /// ReadPage/WritePage. The paper's baseline ran against a disk-resident
  /// database on 2006 hardware; on a laptop-scale reproduction the page file
  /// sits in the OS cache, so the experiment harnesses use this to model the
  /// device the paper's ADIMINE actually paid for (100us ~ a sequential
  /// 4 KiB access on a 2006 SATA disk). Zero (the default) disables it.
  void set_simulated_latency_us(int us) { simulated_latency_us_ = us; }
  int simulated_latency_us() const { return simulated_latency_us_; }

  /// Attaches a fault injector consulted before every read/write/alloc
  /// (nullptr detaches). Not owned; must outlive the manager or be detached
  /// first. Injected faults surface as Status::IoError tagged "injected"
  /// and are counted in stats().injected_faults.
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_ = injector;
  }
  FaultInjector* fault_injector() const { return fault_injector_; }

 private:
  void SimulateLatency() const;

  /// Returns the injected fault for `op`, or OK. Bumps the stat counter.
  Status CheckFault(FaultInjector::Op op, PageId id);

  int fd_ = -1;
  std::string path_;
  /// Atomic: BufferPool::Allocate calls Allocate outside the pool mutex.
  /// Reads/writes to distinct pages go through pread/pwrite, which are
  /// thread-safe on a shared descriptor.
  std::atomic<int> page_count_{0};
  int simulated_latency_us_ = 0;
  FaultInjector* fault_injector_ = nullptr;
  IoStats stats_;
};

}  // namespace partminer

#endif  // PARTMINER_STORAGE_DISK_MANAGER_H_
