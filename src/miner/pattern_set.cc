#include "miner/pattern_set.h"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>

#include "common/fnv.h"
#include "common/logging.h"

namespace partminer {

namespace {

/// Freed blocks with at most kCachedTouchedBytes of records, kept for the
/// next block a frontier maps. A pooled sweep frees a fork per task, and
/// mapping and unmapping each one costs every worker: an unmap takes the
/// process's memory-map lock, which page faults wait for, and interrupts
/// the other CPUs to flush their TLBs. The cache keeps at most
/// kCachedBlocks blocks, so at most 256 KB of touched pages stay resident;
/// larger blocks are always unmapped.
constexpr size_t kCachedBlocks = 16;
constexpr size_t kCachedTouchedBytes = 16 << 10;

struct BlockCache {
  std::mutex mu;
  std::vector<void*> blocks;
};

BlockCache& Cache() {
  // Never destroyed: frontiers may be freed during exit.
  static BlockCache* cache = new BlockCache();
  return *cache;
}

void* MapBlock(size_t bytes) {
  {
    BlockCache& cache = Cache();
    std::lock_guard<std::mutex> lock(cache.mu);
    if (!cache.blocks.empty()) {
      void* block = cache.blocks.back();
      cache.blocks.pop_back();
      return block;
    }
  }
  void* block = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  PM_CHECK(block != MAP_FAILED) << "cannot map a frontier block";
  return block;
}

void UnmapBlock(void* block, size_t bytes, size_t touched_bytes) {
  if (touched_bytes <= kCachedTouchedBytes) {
    BlockCache& cache = Cache();
    std::lock_guard<std::mutex> lock(cache.mu);
    if (cache.blocks.size() < kCachedBlocks) {
      cache.blocks.push_back(block);
      return;
    }
  }
  munmap(block, bytes);
}

uint64_t HashKey(Frontier::NodeId parent, const DfsEdge& tuple) {
  // One FNV-1a round per field (see FnvStep).
  uint64_t h = FnvStep(kFnvOffsetBasis, static_cast<uint32_t>(parent));
  h = FnvStep(h, static_cast<uint32_t>(tuple.from));
  h = FnvStep(h, static_cast<uint32_t>(tuple.to));
  h = FnvStep(h, static_cast<uint32_t>(tuple.from_label));
  h = FnvStep(h, static_cast<uint32_t>(tuple.edge_label));
  return FnvStep(h, static_cast<uint32_t>(tuple.to_label));
}

/// Index slots for `nodes` nodes: a power of two, at least 64, keeping the
/// index at most half full.
size_t IndexSlots(size_t nodes) {
  size_t slots = 64;
  while (slots < nodes * 2) slots *= 2;
  return slots;
}

}  // namespace

size_t Frontier::Probe(NodeId parent, const DfsEdge& tuple) const {
  const size_t mask = slots_.size() - 1;
  size_t i = HashKey(parent, tuple) & mask;
  while (slots_[i] != kNone) {
    const Record& r = At(slots_[i]);
    if (r.parent == parent && r.tuple == tuple) break;
    i = (i + 1) & mask;
  }
  return i;
}

void Frontier::Rehash(size_t slots) {
  slots_.assign(slots, kNone);
  for (NodeId id = 1; id < nodes_.size(); ++id) {
    slots_[Probe(At(id).parent, At(id).tuple)] = id;
  }
}

void Frontier::Insert(NodeId id) {
  const Record& r = At(id);
  const size_t mask = slots_.size() - 1;
  for (size_t i = HashKey(r.parent, r.tuple) & mask;; i = (i + 1) & mask) {
    std::atomic_ref<NodeId> slot(slots_[i]);
    NodeId empty = kNone;
    if (slot.load(std::memory_order_relaxed) == kNone &&
        slot.compare_exchange_strong(empty, id, std::memory_order_relaxed)) {
      return;
    }
  }
}

Frontier::Arena::Arena(const Arena& other) {
  for (NodeId i = 0; i < other.size_; ++i) Append(Record(other[i]));
}

void Frontier::Arena::Truncate(NodeId size) {
  for (NodeId i = size; i < size_; ++i) (*this)[i].~Record();
  const size_t kept_blocks = (size + kBlockSize - 1) / kBlockSize;
  for (size_t b = kept_blocks; b < blocks_.size(); ++b) {
    const size_t records =
        std::min<size_t>(kBlockSize, size_ - b * kBlockSize);
    UnmapBlock(blocks_[b], kBlockBytes, records * sizeof(Record));
  }
  blocks_.resize(kept_blocks);
  size_ = size;
}

Frontier::NodeId Frontier::Arena::Append(Record&& record) {
  const NodeId id = size_;
  if ((id & (kBlockSize - 1)) == 0) {
    blocks_.push_back(static_cast<Record*>(MapBlock(kBlockBytes)));
  }
  new (&(*this)[id]) Record(std::move(record));
  ++size_;
  return id;
}

Frontier::NodeId Frontier::Arena::Grow(NodeId n) {
  const NodeId first = size_;
  size_ += n;
  while (static_cast<NodeId>(blocks_.size()) * kBlockSize < size_) {
    blocks_.push_back(static_cast<Record*>(MapBlock(kBlockBytes)));
  }
  return first;
}

Frontier::NodeId Frontier::Append(Record&& record) {
  const NodeId id = nodes_.Append(std::move(record));
  if (id == kRoot || !indexed_) return id;
  if (static_cast<size_t>(nodes_.size()) * 2 > slots_.size()) {
    Rehash(std::max<size_t>(64, slots_.size() * 2));
  } else {
    slots_[Probe(At(id).parent, At(id).tuple)] = id;
  }
  return id;
}

void Frontier::BeginCapture() {
  indexed_ = false;
}

void Frontier::EndCapture() {
  indexed_ = true;
  IndexAll();
}

void Frontier::IndexAll() {
  slots_ = std::vector<NodeId>();
  if (nodes_.size() == 1) return;
  Rehash(IndexSlots(nodes_.size()));
}

Frontier::NodeId Frontier::Node(NodeId parent, const DfsEdge& tuple) {
  const NodeId found = Find(parent, tuple);
  if (found != kNone) return found;
  Record record;
  record.parent = parent;
  record.tuple = tuple;
  return Append(std::move(record));
}

Frontier::NodeId Frontier::Put(const DfsCode& code, TidSet tids) {
  NodeId node = kRoot;
  for (size_t i = 0; i < code.size(); ++i) node = Node(node, code[i]);
  Put(node, std::move(tids));
  return node;
}

bool Frontier::Lookup(const DfsCode& code, TidSet* tids) const {
  NodeId node = kRoot;
  Epoch prefix_cut = 0;
  for (size_t i = 0; i < code.size() && node != kNone; ++i) {
    prefix_cut = std::max(prefix_cut, At(node).cut);
    node = Find(node, code[i]);
  }
  return Lookup(node, prefix_cut, tids);
}

Frontier::NodeId Frontier::Grow(NodeId n) {
  const size_t nodes = static_cast<size_t>(nodes_.size()) + n;
  // The index is sized before the arena grows: a rehash reads only the
  // nodes already written.
  if (indexed_ && n > 0 && nodes * 2 > slots_.size()) {
    Rehash(IndexSlots(nodes));
  }
  return nodes_.Grow(n);
}

void Frontier::PlaceFork(Frontier fork, NodeId anchor, NodeId first) {
  // Backward, so that each of the fork's blocks is freed as soon as its
  // records have moved, with all of them counted: that tells the block
  // cache how much of it was touched.
  const NodeId shift = first - 1;
  for (NodeId i = fork.nodes_.size() - 1; i >= 1; --i) {
    Record& r = fork.At(i);
    r.parent = r.parent == kRoot ? anchor : r.parent + shift;
    new (&At(i + shift)) Record(std::move(r));
    if (indexed_) Insert(i + shift);
    if ((i & (kBlockSize - 1)) == 0) fork.nodes_.Truncate(i);
  }
  std::atomic_ref<size_t>(entries_).fetch_add(fork.entries_,
                                              std::memory_order_relaxed);
  std::atomic_ref<size_t>(dense_bytes_)
      .fetch_add(fork.dense_bytes_, std::memory_order_relaxed);
}

DfsCode Frontier::CodeOf(NodeId node) const {
  std::vector<DfsEdge> path;
  for (; node != kRoot; node = At(node).parent) path.push_back(At(node).tuple);
  DfsCode code;
  for (auto it = path.rbegin(); it != path.rend(); ++it) code.Append(*it);
  return code;
}

std::vector<Frontier::Epoch> Frontier::PrefixCuts() const {
  // Parents precede their children, so one forward pass sees every
  // parent's value first.
  std::vector<Epoch> prefix_cuts(nodes_.size(), 0);
  if (newest_cut_ == 0) return prefix_cuts;
  for (NodeId i = 1; i < nodes_.size(); ++i) {
    const NodeId parent = At(i).parent;
    prefix_cuts[i] = std::max(prefix_cuts[parent], At(parent).cut);
  }
  return prefix_cuts;
}

void Frontier::BeginRound(const std::vector<int>& updated) {
  ++epoch_;
  for (const int g : updated) {
    if (static_cast<size_t>(g) >= graph_epoch_.size()) {
      graph_epoch_.resize(g + 1, 0);
    }
    graph_epoch_[g] = epoch_;
    pending_.Add(g);
  }
  oldest_pending_ = epoch_;
  pending_.ForEach([this](int g) {
    oldest_pending_ = std::min(oldest_pending_, graph_epoch_[g]);
  });
}

void Frontier::Strip(Epoch since, TidSet* tids) const {
  if (pending_.Empty() || since >= epoch_) return;
  if (since < oldest_pending_) {
    *tids -= pending_;
    return;
  }
  // Walk the smaller of the two sets; most entries hold a TID or two.
  if (tids->Count() <= pending_.Count()) {
    tids->RemoveIf([&](int g) {
      return static_cast<size_t>(g) < graph_epoch_.size() &&
             graph_epoch_[g] > since;
    });
  } else {
    pending_.ForEach([&](int g) {
      if (graph_epoch_[g] > since) tids->Remove(g);
    });
  }
}

void Frontier::Compact() {
  // Strip every live entry and drop the dead and the empty ones; keep the
  // entries left and the path nodes some entry hangs below. Children
  // follow their parents, so one backward pass marks every kept path.
  const std::vector<Epoch> prefix_cuts = PrefixCuts();
  std::vector<bool> kept(nodes_.size(), false);
  for (NodeId i = nodes_.size() - 1; i >= 1; --i) {
    Record& r = At(i);
    if (r.epoch > prefix_cuts[i]) Strip(r.epoch, &r.tids);
    if (r.epoch != 0 && (r.epoch <= prefix_cuts[i] || r.tids.Empty())) {
      r.tids.Clear();
      r.epoch = 0;
    }
    if (r.epoch != 0 || kept[i]) {
      kept[i] = true;
      kept[r.parent] = true;
    }
  }
  // Then move the kept nodes down in order, renumbering their parents. A
  // kept node's new id is never above its old one, and its parent's is
  // already final. The stored TIDs are current now: nothing is pending and
  // nothing is cut. Epochs keep counting, so later rounds stamp past every
  // entry.
  std::vector<NodeId> moved_to(nodes_.size(), kRoot);
  NodeId next = 1;
  entries_ = 0;
  dense_bytes_ = 0;
  for (NodeId i = 1; i < nodes_.size(); ++i) {
    if (!kept[i]) continue;
    Record& r = At(i);
    r.parent = moved_to[r.parent];
    r.cut = 0;
    if (r.epoch != 0) {
      ++entries_;
      dense_bytes_ += r.tids.HeapBytes();
    }
    if (next != i) At(next) = std::move(r);
    moved_to[i] = next++;
  }
  nodes_.Truncate(next);
  graph_epoch_ = std::vector<Epoch>();
  pending_ = TidSet();
  oldest_pending_ = 0;
  newest_cut_ = 0;
  IndexAll();
}

size_t Frontier::CountDead() const {
  if (newest_cut_ == 0) return 0;
  const std::vector<Epoch> prefix_cuts = PrefixCuts();
  size_t dead = 0;
  for (NodeId i = 1; i < nodes_.size(); ++i) {
    const Epoch epoch = At(i).epoch;
    if (epoch != 0 && epoch <= prefix_cuts[i]) ++dead;
  }
  return dead;
}

Frontier::CutMap Frontier::Cuts() const {
  CutMap cuts;
  for (NodeId i = 1; i < nodes_.size(); ++i) {
    if (At(i).cut != 0) cuts.emplace(CodeOf(i), At(i).cut);
  }
  return cuts;
}

size_t Frontier::Bytes() const {
  return nodes_.size() * sizeof(Record) + slots_.capacity() * sizeof(NodeId) +
         dense_bytes_ + graph_epoch_.capacity() * sizeof(Epoch) +
         pending_.HeapBytes();
}

}  // namespace partminer
