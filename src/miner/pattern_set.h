#ifndef PARTMINER_MINER_PATTERN_SET_H_
#define PARTMINER_MINER_PATTERN_SET_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/dfs_code.h"
#include "graph/tid_set.h"

namespace partminer {

/// One discovered frequent subgraph: its canonical (minimum) DFS code, its
/// support, and the TID set — indices of the database graphs containing it,
/// inline up to four TIDs and a bitset above that (see tid_set.h). TID sets
/// are what make the incremental delta-recount of IncPartMiner possible and
/// they confine merge-join support counting to candidate graphs.
struct PatternInfo {
  DfsCode code;
  int support = 0;
  TidSet tids;
};

/// The *frontier* of a mining pass: every rightmost-extension group that was
/// enumerated but did not become a frequent pattern (infrequent, or frequent
/// under a non-minimal code), keyed by the extension's full DFS code
/// (minimal base code + appended tuple) and carrying its exact TID set.
///
/// The frontier is what makes the incremental merge update-proportional:
/// a candidate re-encountered after updates finds its old TID set here and
/// is re-counted by set arithmetic alone — "eliminating the generation of
/// unchanged candidate graphs" (Section 1) without any isomorphism work.
/// FrontierMap is its plain form (code -> exact TIDs), the view tests,
/// state files and the compacted Frontier agree on.
using FrontierMap = std::unordered_map<DfsCode, TidSet, DfsCodeHash>;

/// The frontier as the growth loop writes it and the incremental merge keeps
/// it across rounds.
///
/// *Layout.* Every key the growth loop writes is one extension tuple past a
/// code it visited, so the frontier is a tree of codes stored as a flat
/// arena of node records {parent node, tuple, epoch, cut epoch, TIDs}, with
/// the root (the empty code) at kRoot and every parent before its children.
/// One open-addressing index maps (parent, tuple) to a node. A node whose
/// epoch is 0 is a path node with no entry (a visited pattern); any other
/// node is an entry. A walk that descends the tree carries its node id, so
/// a capture is an append and a lookup is one probe; the DfsCode-keyed
/// Put and Lookup walk the code's path from the root. The records live in
/// page-mapped blocks (see Arena), so a pooled task's fork gives its pages
/// back as it is placed, whichever thread wrote them.
///
/// Two whole-frontier maintenance steps are lazy, so that a round costs in
/// proportion to the update rather than to the frontier:
///
///  - *Lazy strip.* Every entry carries the epoch of its last write, and
///    every graph the epoch it was last updated in (BeginRound opens one
///    epoch per round). An entry's TIDs are exact as of its epoch, so its
///    current value is the stored set minus the graphs updated after it.
///  - *Lazy cut.* Cut(node) stamps the node with the current epoch. An
///    entry is *dead* — reads as absent — when a proper ancestor was cut at
///    or after the entry's epoch: it was derived through occurrences of a
///    pattern that has since dropped out. A walk inherits the newest cut
///    over the ancestors down the tree: max(parent's value, CutEpoch(parent)).
///
/// Compact() applies both to every entry, drops dead and empty entries and
/// the path nodes no entry hangs below, and clears the cuts, so a read
/// returns the same before and after it. The incremental merge cuts every
/// pattern that drops out, which keeps every live entry's current TIDs
/// exact (DESIGN.md §2).
class Frontier {
 public:
  /// Round counter. Writes are stamped with epochs >= 1; 0 means "never".
  using Epoch = uint32_t;
  /// Position of a node record in the arena.
  using NodeId = int32_t;
  static constexpr NodeId kRoot = 0;
  static constexpr NodeId kNone = -1;
  /// Cut codes with the epoch of their newest cut.
  using CutMap = std::unordered_map<DfsCode, Epoch, DfsCodeHash>;

  Frontier() { Append(Record()); }

  /// The node (parent, tuple), appended as a path node when absent.
  NodeId Node(NodeId parent, const DfsEdge& tuple);
  /// Stores `tids` as the exact TIDs of `node` as of the current epoch.
  void Put(NodeId node, TidSet tids) {
    Record& r = At(node);
    dense_bytes_ = dense_bytes_ - r.tids.HeapBytes() + tids.HeapBytes();
    if (r.epoch == 0) ++entries_;
    r.tids = std::move(tids);
    r.epoch = epoch_;
  }
  /// Put on the node of `code`, appending its path as needed.
  NodeId Put(const DfsCode& code, TidSet tids);
  /// Drops the entry of `node`, if any; the node stays.
  void Erase(NodeId node) {
    Record& r = At(node);
    if (r.epoch == 0) return;
    dense_bytes_ -= r.tids.HeapBytes();
    --entries_;
    r.tids.Clear();
    r.epoch = 0;
  }
  /// Drops every node and the epoch state.
  void Clear() { *this = Frontier(); }

  /// Opens the next epoch; `updated` are the graphs changed since the
  /// previous one.
  void BeginRound(const std::vector<int>& updated);
  /// Kills every entry below `node` written so far.
  void Cut(NodeId node) {
    At(node).cut = epoch_;
    newest_cut_ = epoch_;
  }
  /// Newest cut of exactly `node` (0 when never cut).
  Epoch CutEpoch(NodeId node) const { return At(node).cut; }

  /// Current TIDs of `node` into `tids`; false (and `tids` untouched) when
  /// the node is kNone, holds no entry, or its entry is dead. `prefix_cut`
  /// must be the newest cut over the node's proper ancestors.
  bool Lookup(NodeId node, Epoch prefix_cut, TidSet* tids) const {
    if (node == kNone) return false;
    const Record& r = At(node);
    if (r.epoch == 0 || r.epoch <= prefix_cut) return false;
    *tids = r.tids;
    Strip(r.epoch, tids);
    return true;
  }
  /// Lookup by code: walks the code's path from the root.
  bool Lookup(const DfsCode& code, TidSet* tids) const;

  /// The current epoch: what Put stamps and Cut records.
  Epoch epoch() const { return epoch_; }
  /// Distinct graphs updated since the last compaction (or Clear).
  int PendingGraphs() const { return pending_.Count(); }
  /// Strips every entry, drops dead and empty entries and the path nodes
  /// with no entry below them, clears the cuts. Works in place: the kept
  /// nodes keep their order and move down, and the blocks past the last
  /// one are freed.
  void Compact();

  /// Stored entries, dead ones included.
  size_t size() const { return entries_; }
  /// Nodes besides the root: entries and path nodes.
  size_t node_count() const { return nodes_.size() - 1; }
  /// Bytes the frontier holds in use: the node records, the index, the
  /// words of dense TID sets and the per-graph epochs. The untouched tail
  /// of the last block's mapping is not counted.
  size_t Bytes() const;
  /// Stored entries that are dead. Free while nothing is cut; otherwise a
  /// forward pass over the nodes.
  size_t CountDead() const;
  /// Every code cut since the last compaction, by a walk over the nodes.
  CutMap Cuts() const;

  /// Calls `fn(code)` for every stored key, dead ones included.
  template <typename Fn>
  void ForEachKey(Fn&& fn) const {
    for (NodeId i = 1; i < nodes_.size(); ++i) {
      if (At(i).epoch != 0) fn(CodeOf(i));
    }
  }
  /// Calls `fn(code, tids)` for every live entry with non-empty current
  /// TIDs, in node order: the compacted frontier, without compacting.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    const std::vector<Epoch> prefix_cuts = PrefixCuts();
    for (NodeId i = 1; i < nodes_.size(); ++i) {
      const Record& r = At(i);
      if (r.epoch == 0 || r.epoch <= prefix_cuts[i]) continue;
      TidSet tids = r.tids;
      Strip(r.epoch, &tids);
      if (!tids.Empty()) fn(CodeOf(i), tids);
    }
  }
  FrontierMap ToMap() const {
    FrontierMap map;
    ForEachLive([&map](const DfsCode& code, const TidSet& tids) {
      map.emplace(code, tids);
    });
    return map;
  }

  /// Starts a fresh capture into a frontier that holds only the root. A
  /// fresh capture never finds an existing node, so until EndCapture the
  /// (parent, tuple) index is not kept and Node always appends.
  void BeginCapture();
  /// Builds the index over every node, once.
  void EndCapture();

  /// An empty frontier stamping writes with this one's epoch: the
  /// task-local sink of a pooled growth run. Its root stands for the node
  /// the task grows below. A fork is a fresh capture that is placed, not
  /// ended, so it never keeps an index.
  Frontier Fork() const {
    Frontier fork;
    fork.epoch_ = epoch_;
    fork.indexed_ = false;
    return fork;
  }
  /// Appends `n` unwritten nodes, ids [first, first + n), and returns
  /// first. PlaceFork must write every one of them before anything else
  /// reads or grows the frontier. When the frontier keeps an index, Grow
  /// sizes it for every node, so that PlaceFork can fill it.
  NodeId Grow(NodeId n);
  /// Moves the nodes of `fork`, in its order, to the grown ids from `first`
  /// on, below `anchor`, the node the fork's root stands for: a parent that
  /// is the fork's root becomes `anchor`, any other shifts by first - 1.
  /// None of them may have a node here yet. Indexes them when the frontier
  /// keeps an index, and frees the fork's blocks as it consumes them. Calls
  /// over disjoint id ranges may run at once.
  void PlaceFork(Frontier fork, NodeId anchor, NodeId first);

  /// Equal compacted views.
  friend bool operator==(const Frontier& a, const Frontier& b) {
    return a.ToMap() == b.ToMap();
  }

 private:
  struct Record {
    NodeId parent = kNone;
    DfsEdge tuple;
    /// Epoch of the entry's last write; 0 for a path node.
    Epoch epoch = 0;
    /// Epoch of the node's newest cut since the last compaction; 0: none.
    Epoch cut = 0;
    TidSet tids;
  };

  /// Nodes per arena block.
  static constexpr int kBlockShift = 12;
  static constexpr NodeId kBlockSize = NodeId{1} << kBlockShift;

  /// The node records, in blocks of kBlockSize that never move. A block is
  /// one anonymous page mapping: its pages are touched as records are
  /// appended and are unmapped with it (a block with few records goes to a
  /// small process-wide cache instead), so a fork leaves nothing behind in
  /// the malloc arena of the worker that wrote it.
  class Arena {
   public:
    Arena() = default;
    Arena(const Arena& other);
    Arena(Arena&& other) noexcept
        : blocks_(std::move(other.blocks_)),
          size_(std::exchange(other.size_, 0)) {}
    Arena& operator=(Arena other) noexcept {
      std::swap(blocks_, other.blocks_);
      std::swap(size_, other.size_);
      return *this;
    }
    ~Arena() { Truncate(0); }

    Record& operator[](NodeId id) {
      return blocks_[id >> kBlockShift][id & (kBlockSize - 1)];
    }
    const Record& operator[](NodeId id) const {
      return blocks_[id >> kBlockShift][id & (kBlockSize - 1)];
    }
    NodeId size() const { return size_; }
    /// Appends `record`, mapping a block when the last one is full; returns
    /// its id.
    NodeId Append(Record&& record);
    /// Appends `n` unconstructed records, mapping the blocks they need;
    /// returns the first id. The caller constructs every one of them.
    NodeId Grow(NodeId n);
    /// Destroys the records from `size` on and frees the blocks that no
    /// longer hold one.
    void Truncate(NodeId size);

   private:
    static constexpr size_t kBlockBytes = kBlockSize * sizeof(Record);
    std::vector<Record*> blocks_;
    NodeId size_ = 0;
  };

  Record& At(NodeId node) { return nodes_[node]; }
  const Record& At(NodeId node) const { return nodes_[node]; }
  /// The node (parent, tuple), or kNone.
  NodeId Find(NodeId parent, const DfsEdge& tuple) const {
    return slots_.empty() ? kNone : slots_[Probe(parent, tuple)];
  }
  /// Slot of (parent, tuple) in slots_, or the empty slot where it would
  /// go. slots_ must be non-empty.
  size_t Probe(NodeId parent, const DfsEdge& tuple) const;
  /// Rebuilds the index with `slots` slots over every node.
  void Rehash(size_t slots);
  /// Frees the index and builds it once over every node, at most half
  /// full.
  void IndexAll();
  /// Indexes node `id`, whose key no other node has, by a compare-and-swap
  /// into the first empty slot of its probe sequence: safe beside other
  /// Insert calls while nothing reads the index.
  void Insert(NodeId id);
  /// Appends `record` and, unless it is the root or the index is not kept
  /// (a capture or a fork), indexes it; returns its id.
  NodeId Append(Record&& record);
  /// The code of `node`: the tuples on its path from the root.
  DfsCode CodeOf(NodeId node) const;
  /// Per node, the newest cut over its proper ancestors: one forward pass.
  std::vector<Epoch> PrefixCuts() const;
  /// Removes from `tids` the graphs updated after epoch `since`.
  void Strip(Epoch since, TidSet* tids) const;

  /// Node i is At(i); node kRoot is the empty code.
  Arena nodes_;
  /// Open addressing: slot -> node id, kNone empty; at most half full.
  /// Empty, and not kept, during a capture and in a fork.
  std::vector<NodeId> slots_;
  bool indexed_ = true;
  size_t entries_ = 0;
  /// Words of the dense TID sets stored, in bytes.
  size_t dense_bytes_ = 0;
  Epoch epoch_ = 1;
  /// Per graph, the epoch of its last update since the last compaction
  /// (0: none); `pending_` holds those graphs.
  std::vector<Epoch> graph_epoch_;
  TidSet pending_;
  /// Smallest graph_epoch_ over `pending_`: an entry older than it loses
  /// every pending graph.
  Epoch oldest_pending_ = 0;
  /// Newest cut since the last compaction (0: none).
  Epoch newest_cut_ = 0;
};

/// A node's frontier cache: captured by Mine, kept by every update round.
struct NodeFrontier {
  Frontier map;
};

/// A set of frequent subgraphs keyed by canonical code; the P(U) / P(D)
/// objects of the paper. Patterns are retrievable by edge count, which is
/// how the merge-join walks P^k level by level.
class PatternSet {
 public:
  PatternSet() = default;

  /// Inserts or replaces the pattern with `info.code`. Returns true when the
  /// pattern was newly inserted.
  bool Upsert(PatternInfo info) {
    auto [it, inserted] =
        index_.try_emplace(info.code, static_cast<int>(patterns_.size()));
    if (inserted) {
      patterns_.push_back(std::move(info));
    } else {
      patterns_[it->second] = std::move(info);
    }
    return inserted;
  }

  bool Contains(const DfsCode& code) const { return index_.count(code) > 0; }

  /// Pointer to the stored pattern, or nullptr. Invalidated by Upsert/Erase.
  const PatternInfo* Find(const DfsCode& code) const {
    auto it = index_.find(code);
    return it == index_.end() ? nullptr : &patterns_[it->second];
  }
  /// Position of `code` in patterns(), or -1. Positions hold until an
  /// Erase.
  int IndexOf(const DfsCode& code) const {
    auto it = index_.find(code);
    return it == index_.end() ? -1 : it->second;
  }

  /// Removes a pattern if present; returns true when something was removed.
  bool Erase(const DfsCode& code) {
    auto it = index_.find(code);
    if (it == index_.end()) return false;
    const int pos = it->second;
    const int last = static_cast<int>(patterns_.size()) - 1;
    index_.erase(it);
    if (pos != last) {
      patterns_[pos] = std::move(patterns_[last]);
      index_[patterns_[pos].code] = pos;
    }
    patterns_.pop_back();
    return true;
  }

  int size() const { return static_cast<int>(patterns_.size()); }
  bool empty() const { return patterns_.empty(); }

  const std::vector<PatternInfo>& patterns() const { return patterns_; }
  /// The pattern at position `i`, mutable: callers may change the support
  /// and the TIDs, never the code.
  PatternInfo& mutable_pattern(int i) { return patterns_[i]; }

  /// Largest pattern size present (0 when empty).
  int MaxEdgeCount() const {
    int max_edges = 0;
    for (const PatternInfo& p : patterns_) {
      max_edges = std::max(max_edges, static_cast<int>(p.code.size()));
    }
    return max_edges;
  }

  /// Union: patterns of `other` absent from this set are inserted.
  void MergeFrom(const PatternSet& other) {
    for (const PatternInfo& p : other.patterns_) {
      if (!Contains(p.code)) Upsert(p);
    }
  }

  /// Moves every pattern of `other` into this set, preserving `other`'s
  /// insertion order. The parallel miners use this to stitch task-local
  /// subtree results back together in the serial traversal order, which is
  /// what keeps parallel output bit-identical to serial. `other` is left
  /// empty.
  void AppendFrom(PatternSet&& other) {
    for (PatternInfo& p : other.patterns_) Upsert(std::move(p));
    other.patterns_.clear();
    other.index_.clear();
  }

  /// Set of canonical codes, sorted — convenient for equality assertions in
  /// tests and for diffing pattern sets.
  std::vector<std::string> SortedCodeStrings() const {
    std::vector<std::string> out;
    out.reserve(patterns_.size());
    for (const PatternInfo& p : patterns_) out.push_back(p.code.ToString());
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::unordered_map<DfsCode, int, DfsCodeHash> index_;
  std::vector<PatternInfo> patterns_;
};

}  // namespace partminer

#endif  // PARTMINER_MINER_PATTERN_SET_H_
