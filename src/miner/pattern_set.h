#ifndef PARTMINER_MINER_PATTERN_SET_H_
#define PARTMINER_MINER_PATTERN_SET_H_

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/dfs_code.h"
#include "graph/tid_set.h"

namespace partminer {

/// One discovered frequent subgraph: its canonical (minimum) DFS code, its
/// support, and the TID set — indices of the database graphs containing it,
/// stored as a dense bitset (see tid_set.h). TID sets are what make the
/// incremental delta-recount of IncPartMiner possible and they confine
/// merge-join support counting to candidate graphs.
struct PatternInfo {
  DfsCode code;
  int support = 0;
  TidSet tids;
  /// True when support/tids were counted exactly against the database the
  /// holding set describes. Every miner and merge emits exact patterns; the
  /// flag is round-tripped by state_io and honored by the differential
  /// harness's TID comparison.
  bool exact_tids = true;
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
/// Hash-keyed for cheap capture during mining sweeps; the (rare) removal of
/// a dropped pattern's extension subtree scans the map for prefix matches.
using FrontierMap = std::unordered_map<DfsCode, TidSet, DfsCodeHash>;

/// A node's frontier cache with a validity flag: large-update rounds take
/// the exact re-sweep and skip the capture cost, invalidating the cache;
/// the next small-update round re-captures once and delta rounds resume.
struct NodeFrontier {
  FrontierMap map;
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

  /// Patterns with exactly `k` edges (the paper's P^k).
  std::vector<const PatternInfo*> WithEdgeCount(int k) const {
    std::vector<const PatternInfo*> out;
    for (const PatternInfo& p : patterns_) {
      if (static_cast<int>(p.code.size()) == k) out.push_back(&p);
    }
    return out;
  }

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
