#include "storage/buffer_pool.h"

#include <cstring>

#include "common/logging.h"
#include "obs/metrics.h"

namespace partminer {

BufferPool::BufferPool(DiskManager* disk, int frames) : disk_(disk) {
  PM_CHECK_GT(frames, 0);
  frames_.resize(frames);
  free_.reserve(frames);
  for (int i = frames - 1; i >= 0; --i) free_.push_back(i);
}

Status BufferPool::GetVictim(int* frame) {
  *frame = -1;
  if (!free_.empty()) {
    *frame = free_.back();
    free_.pop_back();
    frames_[*frame].data.resize(kPageSize);
    return Status::Ok();
  }
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    Frame& f = frames_[*it];
    if (f.pin_count == 0) {
      if (f.dirty) {
        // Write back before detaching anything: on failure the page stays
        // cached, dirty, and evictable, so no data is lost.
        PARTMINER_RETURN_IF_ERROR_CTX(
            disk_->WritePage(f.page_id, f.data.data()),
            "evicting page " + std::to_string(f.page_id));
        f.dirty = false;
      }
      *frame = *it;
      lru_.erase(it);
      table_.erase(f.page_id);
      ++disk_->mutable_stats()->evictions;
      PM_METRIC_COUNTER("storage.pool_evictions")->Increment();
      return Status::Ok();
    }
  }
  return Status::ResourceExhausted("buffer pool exhausted: all " +
                                   std::to_string(frames_.size()) +
                                   " frames pinned");
}

Status BufferPool::Fetch(PageId id, char** frame) {
  *frame = nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(id);
  if (it != table_.end()) {
    Frame& f = frames_[it->second];
    if (f.pin_count == 0) lru_.remove(it->second);
    ++f.pin_count;
    ++disk_->mutable_stats()->pool_hits;
    PM_METRIC_COUNTER("storage.pool_hits")->Increment();
    *frame = f.data.data();
    return Status::Ok();
  }
  ++disk_->mutable_stats()->pool_misses;
  PM_METRIC_COUNTER("storage.pool_misses")->Increment();
  int victim = -1;
  PARTMINER_RETURN_IF_ERROR_CTX(GetVictim(&victim),
                                "fetching page " + std::to_string(id));
  Frame& f = frames_[victim];
  // Read into the detached frame before installing it, so a failed read
  // returns the frame to the free list instead of caching garbage.
  const Status read = disk_->ReadPage(id, f.data.data());
  if (!read.ok()) {
    free_.push_back(victim);
    return read.WithContext("fetching page " + std::to_string(id));
  }
  f.page_id = id;
  f.pin_count = 1;
  f.dirty = false;
  table_[id] = victim;
  *frame = f.data.data();
  return Status::Ok();
}

Status BufferPool::Allocate(PageId* id, char** frame) {
  *frame = nullptr;
  PARTMINER_RETURN_IF_ERROR_CTX(disk_->Allocate(id), "allocating page");
  std::lock_guard<std::mutex> lock(mu_);
  int victim = -1;
  PARTMINER_RETURN_IF_ERROR_CTX(
      GetVictim(&victim), "allocating page " + std::to_string(*id));
  Frame& f = frames_[victim];
  f.page_id = *id;
  f.pin_count = 1;
  f.dirty = true;  // New pages must reach disk even if never re-written.
  std::memset(f.data.data(), 0, kPageSize);
  table_[*id] = victim;
  *frame = f.data.data();
  return Status::Ok();
}

void BufferPool::Unpin(PageId id, bool dirty) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(id);
  PM_CHECK(it != table_.end()) << "unpin of uncached page " << id;
  Frame& f = frames_[it->second];
  PM_CHECK_GT(f.pin_count, 0);
  f.dirty = f.dirty || dirty;
  if (--f.pin_count == 0) lru_.push_back(it->second);
}

Status BufferPool::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [page_id, frame] : table_) {
    Frame& f = frames_[frame];
    if (f.dirty) {
      PARTMINER_RETURN_IF_ERROR_CTX(
          disk_->WritePage(page_id, f.data.data()),
          "flushing page " + std::to_string(page_id));
      f.dirty = false;
    }
  }
  return Status::Ok();
}

void BufferPool::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [page_id, frame] : table_) {
    PM_CHECK_EQ(frames_[frame].pin_count, 0)
        << "Clear with pinned page " << page_id;
  }
  table_.clear();
  lru_.clear();
  free_.clear();
  for (int i = static_cast<int>(frames_.size()) - 1; i >= 0; --i) {
    frames_[i] = Frame();
    free_.push_back(i);
  }
}

}  // namespace partminer
