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

/// The frontier as the incremental merge keeps it across rounds, with its
/// two whole-map maintenance steps made lazy so that a round costs in
/// proportion to the update rather than to the frontier:
///
///  - *Lazy strip.* Every entry carries the epoch of its last write, and
///    every graph the epoch it was last updated in (BeginRound opens one
///    epoch per round). An entry's TIDs are exact as of its epoch, so its
///    current value is the stored set minus the graphs updated after it.
///  - *Lazy cut.* Cut(prefix) logs the prefix with the current epoch. An
///    entry is *dead* — reads as absent — when some proper prefix of its
///    code was cut at or after the entry's epoch: it was derived through
///    occurrences of a pattern that has since dropped out.
///
/// Compact() applies both to every entry, drops dead and empty ones and
/// clears the logs, so a read returns the same before and after it. The
/// incremental merge cuts every pattern that drops out, which keeps every
/// live entry's current TIDs exact (DESIGN.md §2).
class Frontier {
 public:
  /// Round counter. Writes are stamped with epochs >= 1; 0 means "never".
  using Epoch = uint64_t;
  using CutLog = std::unordered_map<DfsCode, Epoch, DfsCodeHash>;

  /// Stores `tids` as the exact TIDs of `code` as of the current epoch.
  void Put(const DfsCode& code, TidSet tids) {
    Entry& entry = entries_[code];
    entry.tids = std::move(tids);
    entry.epoch = epoch_;
  }
  void Erase(const DfsCode& code) { entries_.erase(code); }
  /// Drops every entry and both logs.
  void Clear() { *this = Frontier(); }

  /// Opens the next epoch; `updated` are the graphs changed since the
  /// previous one.
  void BeginRound(const std::vector<int>& updated);
  /// Kills every entry strictly extending `prefix` written so far.
  void Cut(const DfsCode& prefix);
  /// Newest cut of exactly `code` (0 when never cut).
  Epoch CutEpoch(const DfsCode& code) const {
    if (cuts_.empty()) return 0;
    const auto it = cuts_.find(code);
    return it == cuts_.end() ? 0 : it->second;
  }
  /// Newest cut over the proper prefixes of `code`, from the cut log. A
  /// walk that reaches codes through their prefix chain can carry this
  /// down instead: max(parent's value, CutEpoch(parent)).
  Epoch PrefixCutEpoch(const DfsCode& code) const;

  /// Current TIDs of `code` into `tids`; false (and `tids` untouched) when
  /// the code has no entry or its entry is dead. `prefix_cut` must be
  /// PrefixCutEpoch(code).
  bool Lookup(const DfsCode& code, Epoch prefix_cut, TidSet* tids) const {
    const auto it = entries_.find(code);
    if (it == entries_.end() || it->second.epoch <= prefix_cut) return false;
    *tids = it->second.tids;
    Strip(it->second.epoch, tids);
    return true;
  }
  bool Lookup(const DfsCode& code, TidSet* tids) const {
    return Lookup(code, PrefixCutEpoch(code), tids);
  }

  /// The current epoch: what Put stamps and Cut logs.
  Epoch epoch() const { return epoch_; }
  /// Distinct graphs updated since the last compaction (or Clear).
  int PendingGraphs() const { return pending_.Count(); }
  /// Strips every entry, drops dead and empty ones, clears both logs.
  void Compact();

  /// Stored entries, dead ones included.
  size_t size() const { return entries_.size(); }
  /// Stored entries that are dead. Free while no cut is logged; otherwise
  /// a walk over the entries.
  size_t CountDead() const;
  const CutLog& cuts() const { return cuts_; }

  /// Calls `fn(code)` for every stored key, dead ones included.
  template <typename Fn>
  void ForEachKey(Fn&& fn) const {
    for (const auto& [code, entry] : entries_) fn(code);
  }
  /// Calls `fn(code, tids)` for every live entry with non-empty current
  /// TIDs: the compacted frontier, without compacting.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    for (const auto& [code, entry] : entries_) {
      if (Dead(code, entry.epoch)) continue;
      TidSet tids = entry.tids;
      Strip(entry.epoch, &tids);
      if (!tids.Empty()) fn(code, tids);
    }
  }
  FrontierMap ToMap() const {
    FrontierMap map;
    ForEachLive([&map](const DfsCode& code, const TidSet& tids) {
      map.emplace(code, tids);
    });
    return map;
  }

  /// An empty frontier stamping writes with this one's epoch: the
  /// task-local sink of a pooled growth run.
  Frontier Fork() const {
    Frontier fork;
    fork.epoch_ = epoch_;
    return fork;
  }
  /// Moves in the entries of `other` whose codes have no entry here.
  void MergeFrom(Frontier&& other) { entries_.merge(other.entries_); }

  /// Equal compacted views.
  friend bool operator==(const Frontier& a, const Frontier& b) {
    return a.ToMap() == b.ToMap();
  }

 private:
  struct Entry {
    TidSet tids;
    Epoch epoch = 0;
  };

  /// Removes from `tids` the graphs updated after epoch `since`.
  void Strip(Epoch since, TidSet* tids) const;
  bool Dead(const DfsCode& code, Epoch epoch) const {
    return epoch <= newest_cut_ && epoch <= PrefixCutEpoch(code);
  }

  std::unordered_map<DfsCode, Entry, DfsCodeHash> entries_;
  Epoch epoch_ = 1;
  /// Per graph, the epoch of its last update since the last compaction
  /// (0: none); `pending_` holds those graphs.
  std::vector<Epoch> graph_epoch_;
  TidSet pending_;
  /// Smallest graph_epoch_ over `pending_`: an entry older than it loses
  /// every pending graph.
  Epoch oldest_pending_ = 0;
  CutLog cuts_;
  Epoch newest_cut_ = 0;
  /// First tuples of the cut prefixes: most codes share no root with any
  /// cut, which PrefixCutEpoch answers at once.
  std::vector<DfsEdge> cut_roots_;
};

/// A node's frontier cache with a validity flag: large-update rounds take
/// the exact re-sweep and skip the capture cost, invalidating the cache;
/// the next small-update round re-captures once and delta rounds resume.
struct NodeFrontier {
  Frontier map;
  bool valid = false;
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
