#ifndef PARTMINER_STORAGE_BUFFER_POOL_H_
#define PARTMINER_STORAGE_BUFFER_POOL_H_

#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/disk_manager.h"

namespace partminer {

/// Buffer-pool sizing for a disk-resident index (AdiMineOptions::pool), set
/// from --pool-frames by the CLI and the fig benches.
struct PoolSizing {
  /// Pool capacity in pages. Small pools force re-reads during scans,
  /// modeling a database larger than memory.
  int frames = 256;
};

/// Fixed-capacity page cache with LRU replacement over a DiskManager. This
/// is what makes the ADI-style baseline "disk-based": its index lives in
/// pages, and scans that exceed the pool capacity pay real reads.
///
/// Pages are pinned while a caller holds them; unpinned pages are eligible
/// for eviction. Dirty pages are written back on eviction and on FlushAll.
///
/// Concurrency: one mutex guards the frames, hash table and LRU list, so
/// concurrent callers are safe; IoStats counters are atomic, so totals stay
/// exact under concurrency.
class BufferPool {
 public:
  /// `frames` (>= 1) is the pool capacity in pages.
  BufferPool(DiskManager* disk, int frames);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins page `id` and sets `*frame` to its data (kPageSize bytes). Call
  /// Unpin when done. Fails with ResourceExhausted when every frame is
  /// pinned, and propagates disk errors from the eviction write-back and
  /// the page read; `*frame` is nullptr on failure and the pool state is
  /// unchanged (no pin leaks, no cached garbage).
  Status Fetch(PageId id, char** frame);

  /// Allocates a new page, pinned and zeroed. Sets `*id` and `*frame`.
  /// Same failure contract as Fetch; additionally propagates allocation
  /// faults from the disk manager.
  Status Allocate(PageId* id, char** frame);

  /// Releases one pin; `dirty` marks the page for write-back.
  void Unpin(PageId id, bool dirty);

  /// Writes back every dirty page (pages stay cached).
  Status FlushAll();

  /// Drops the cache (pages must be unpinned); used around index rebuilds.
  void Clear();

  int frames() const { return static_cast<int>(frames_.size()); }
  const IoStats& stats() const { return disk_->stats(); }

 private:
  struct Frame {
    PageId page_id = kInvalidPageId;
    int pin_count = 0;
    bool dirty = false;
    std::vector<char> data;
  };

  /// Finds a free frame index (set in `*frame`), evicting the LRU unpinned
  /// page if needed. ResourceExhausted when everything is pinned; a failed
  /// dirty write-back propagates and leaves the victim cached and dirty
  /// (nothing is lost — a later flush retries). The returned frame is
  /// detached from every pool structure; the caller must install or
  /// release it. Caller holds mu_.
  Status GetVictim(int* frame);

  DiskManager* disk_;
  std::mutex mu_;  // Guards every member below; frames_ is never resized.
  std::vector<Frame> frames_;
  std::unordered_map<PageId, int> table_;  // page id -> frame index.
  std::list<int> lru_;                     // Unpinned frames, LRU first.
  std::vector<int> free_;                  // Never-used frames.
};

}  // namespace partminer

#endif  // PARTMINER_STORAGE_BUFFER_POOL_H_
