#include "miner/pattern_set.h"

#include <algorithm>
#include <utility>

#include "common/fnv.h"
#include "common/logging.h"

namespace partminer {

size_t Frontier::Probe(NodeId parent, const DfsEdge& tuple) const {
  // One FNV-1a round per field (see FnvStep).
  uint64_t h = FnvStep(kFnvOffsetBasis, static_cast<uint32_t>(parent));
  h = FnvStep(h, static_cast<uint32_t>(tuple.from));
  h = FnvStep(h, static_cast<uint32_t>(tuple.to));
  h = FnvStep(h, static_cast<uint32_t>(tuple.from_label));
  h = FnvStep(h, static_cast<uint32_t>(tuple.edge_label));
  h = FnvStep(h, static_cast<uint32_t>(tuple.to_label));
  const size_t mask = slots_.size() - 1;
  size_t i = h & mask;
  while (slots_[i] != kNone) {
    const Record& r = At(slots_[i]);
    if (r.parent == parent && r.tuple == tuple) break;
    i = (i + 1) & mask;
  }
  return i;
}

void Frontier::Rehash(size_t slots) {
  slots_.assign(slots, kNone);
  for (NodeId id = 1; id < count_; ++id) {
    slots_[Probe(At(id).parent, At(id).tuple)] = id;
  }
}

Frontier::NodeId Frontier::Append(Record&& record) {
  const NodeId id = count_++;
  if ((id & (kBlockSize - 1)) == 0) {
    blocks_.emplace_back();
    if (id > 0) blocks_.back().reserve(kBlockSize);
  }
  blocks_.back().push_back(std::move(record));
  if (id == kRoot) return id;
  if (static_cast<size_t>(count_) * 2 > slots_.size()) {
    Rehash(std::max<size_t>(64, slots_.size() * 2));
  } else {
    slots_[Probe(At(id).parent, At(id).tuple)] = id;
  }
  return id;
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

void Frontier::Splice(Frontier&& fork, NodeId anchor) {
  const NodeId offset = count_ - 1;
  for (NodeId i = 1; i < fork.count_; ++i) {
    Record& r = fork.At(i);
    r.parent = r.parent == kRoot ? anchor : r.parent + offset;
    PM_DCHECK(Find(r.parent, r.tuple) == kNone);
    Append(std::move(r));
  }
  entries_ += fork.entries_;
  dense_bytes_ += fork.dense_bytes_;
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
  std::vector<Epoch> prefix_cuts(count_, 0);
  if (newest_cut_ == 0) return prefix_cuts;
  for (NodeId i = 1; i < count_; ++i) {
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
  std::vector<bool> kept(count_, false);
  for (NodeId i = count_ - 1; i >= 1; --i) {
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
  // Then move the kept nodes over in order, renumbering their parents.
  // The stored TIDs are current now: nothing is pending and nothing is
  // cut. Epochs keep counting, so later rounds stamp past every entry.
  Frontier compacted = Fork();
  std::vector<NodeId> moved_to(count_, kRoot);
  for (NodeId i = 1; i < count_; ++i) {
    if (!kept[i]) continue;
    Record& r = At(i);
    r.parent = moved_to[r.parent];
    r.cut = 0;
    if (r.epoch != 0) {
      ++compacted.entries_;
      compacted.dense_bytes_ += r.tids.HeapBytes();
    }
    moved_to[i] = compacted.Append(std::move(r));
  }
  *this = std::move(compacted);
}

size_t Frontier::CountDead() const {
  if (newest_cut_ == 0) return 0;
  const std::vector<Epoch> prefix_cuts = PrefixCuts();
  size_t dead = 0;
  for (NodeId i = 1; i < count_; ++i) {
    const Epoch epoch = At(i).epoch;
    if (epoch != 0 && epoch <= prefix_cuts[i]) ++dead;
  }
  return dead;
}

Frontier::CutMap Frontier::Cuts() const {
  CutMap cuts;
  for (NodeId i = 1; i < count_; ++i) {
    if (At(i).cut != 0) cuts.emplace(CodeOf(i), At(i).cut);
  }
  return cuts;
}

size_t Frontier::Bytes() const {
  size_t bytes = blocks_.capacity() * sizeof(blocks_[0]);
  for (const std::vector<Record>& block : blocks_) {
    bytes += block.capacity() * sizeof(Record);
  }
  return bytes + slots_.capacity() * sizeof(NodeId) + dense_bytes_ +
         graph_epoch_.capacity() * sizeof(Epoch) + pending_.HeapBytes();
}

}  // namespace partminer
