#ifndef PARTMINER_GRAPH_DFS_CODE_H_
#define PARTMINER_GRAPH_DFS_CODE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace partminer {

/// One entry of a DFS code: the 5-tuple (i, j, l_i, l_(i,j), l_j) of
/// Yan & Han's gSpan encoding, which the paper adopts in Section 3.
/// `from`/`to` are DFS discovery indices; the edge is *forward* when
/// from < to (tree edge discovering vertex `to`) and *backward* otherwise.
struct DfsEdge {
  int32_t from = 0;
  int32_t to = 0;
  Label from_label = kNoLabel;
  Label edge_label = kNoLabel;
  Label to_label = kNoLabel;

  bool IsForward() const { return from < to; }

  friend bool operator==(const DfsEdge& a, const DfsEdge& b) {
    return a.from == b.from && a.to == b.to && a.from_label == b.from_label &&
           a.edge_label == b.edge_label && a.to_label == b.to_label;
  }
};

/// Total order on DFS-code entries (gSpan's neighborhood order). Returns
/// negative / zero / positive like strcmp. Both entries must be extensions of
/// the same partial code for the structural comparison to be meaningful.
int CompareDfsEdge(const DfsEdge& a, const DfsEdge& b);

/// A DFS code: an edge sequence encoding a connected labeled graph
/// (Figure 1 of the paper). Two graphs are isomorphic iff their *minimum*
/// DFS codes are equal, which makes the minimum code a canonical label.
class DfsCode {
 public:
  DfsCode() = default;

  void Append(const DfsEdge& e) { edges_.push_back(e); }
  void PopBack() { edges_.pop_back(); }
  void Clear() { edges_.clear(); }

  size_t size() const { return edges_.size(); }
  bool empty() const { return edges_.empty(); }
  const DfsEdge& operator[](size_t i) const { return edges_[i]; }
  const DfsEdge& back() const { return edges_.back(); }
  const std::vector<DfsEdge>& edges() const { return edges_; }

  /// Number of vertices of the encoded graph (max DFS index + 1).
  int VertexCount() const;

  /// Reconstructs the encoded pattern graph. Vertex v of the result carries
  /// the DFS index v, so MinimumDfsCode(ToGraph()) round-trips canonically.
  Graph ToGraph() const;

  /// DFS indices on the rightmost path, root first. Empty for empty codes.
  std::vector<int> RightmostPath() const;

  /// Lexicographic comparison using CompareDfsEdge per position; shorter
  /// prefix compares smaller.
  int Compare(const DfsCode& other) const;

  /// Stable 64-bit hash: one FNV-1a round per tuple field (see FnvStep).
  uint64_t Hash() const;

  /// Rendering like "(0,1,a,x,b)(1,2,b,y,c)" with numeric labels.
  std::string ToString() const;

  friend bool operator==(const DfsCode& a, const DfsCode& b) {
    return a.edges_ == b.edges_;
  }
  friend bool operator<(const DfsCode& a, const DfsCode& b) {
    return a.Compare(b) < 0;
  }

 private:
  std::vector<DfsEdge> edges_;
};

/// Hash functor for unordered containers keyed by DfsCode.
struct DfsCodeHash {
  size_t operator()(const DfsCode& code) const {
    return static_cast<size_t>(code.Hash());
  }
};

}  // namespace partminer

#endif  // PARTMINER_GRAPH_DFS_CODE_H_
