#include "graph/dfs_code.h"

#include <algorithm>
#include <sstream>

#include "common/fnv.h"

namespace partminer {

namespace {

/// Three-way comparison of label triples.
int CompareLabels(const DfsEdge& a, const DfsEdge& b) {
  if (a.from_label != b.from_label) return a.from_label < b.from_label ? -1 : 1;
  if (a.edge_label != b.edge_label) return a.edge_label < b.edge_label ? -1 : 1;
  if (a.to_label != b.to_label) return a.to_label < b.to_label ? -1 : 1;
  return 0;
}

}  // namespace

int CompareDfsEdge(const DfsEdge& a, const DfsEdge& b) {
  const bool fa = a.IsForward();
  const bool fb = b.IsForward();
  if (a.from == b.from && a.to == b.to) {
    return CompareLabels(a, b);
  }
  // gSpan neighborhood order on edge positions.
  if (fa && fb) {
    if (a.to != b.to) return a.to < b.to ? -1 : 1;
    // Same discovered vertex: the edge from the deeper vertex is smaller.
    return a.from > b.from ? -1 : 1;
  }
  if (!fa && !fb) {
    if (a.from != b.from) return a.from < b.from ? -1 : 1;
    return a.to < b.to ? -1 : 1;
  }
  if (!fa && fb) {
    // Backward (i1, j1) precedes forward (i2, j2) iff i1 < j2.
    return a.from < b.to ? -1 : 1;
  }
  // Forward a, backward b: a precedes iff j1 <= i2.
  return a.to <= b.from ? -1 : 1;
}

int DfsCode::VertexCount() const {
  int max_index = -1;
  for (const DfsEdge& e : edges_) {
    max_index = std::max(max_index, std::max(e.from, e.to));
  }
  return max_index + 1;
}

Graph DfsCode::ToGraph() const {
  Graph g(VertexCount());
  for (const DfsEdge& e : edges_) {
    if (e.IsForward()) {
      g.set_vertex_label(e.from, e.from_label);
      g.set_vertex_label(e.to, e.to_label);
    }
  }
  // A valid nonempty code starts with a forward edge, so all labels are set
  // by the loop above; backward edges only add adjacency.
  for (const DfsEdge& e : edges_) {
    g.AddEdge(e.from, e.to, e.edge_label);
  }
  return g;
}

std::vector<int> DfsCode::RightmostPath() const {
  if (edges_.empty()) return {};
  // parent[v] for each vertex discovered by a forward edge.
  const int n = VertexCount();
  std::vector<int> parent(n, -1);
  int rightmost = 0;
  for (const DfsEdge& e : edges_) {
    if (e.IsForward()) {
      parent[e.to] = e.from;
      rightmost = e.to;
    }
  }
  std::vector<int> path;
  for (int v = rightmost; v != -1; v = parent[v]) path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

int DfsCode::Compare(const DfsCode& other) const {
  const size_t n = std::min(edges_.size(), other.edges_.size());
  for (size_t i = 0; i < n; ++i) {
    const int c = CompareDfsEdge(edges_[i], other.edges_[i]);
    if (c != 0) return c;
  }
  if (edges_.size() == other.edges_.size()) return 0;
  return edges_.size() < other.edges_.size() ? -1 : 1;
}

uint64_t DfsCode::Hash() const {
  // One FNV-1a round per field (see FnvStep), each offset by the golden
  // ratio so small labels and indices spread.
  uint64_t h = kFnvOffsetBasis;
  auto mix = [&h](int64_t v) {
    h = FnvStep(h, static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ULL);
  };
  for (const DfsEdge& e : edges_) {
    mix(e.from);
    mix(e.to);
    mix(e.from_label);
    mix(e.edge_label);
    mix(e.to_label);
  }
  return h;
}

std::string DfsCode::ToString() const {
  std::ostringstream out;
  for (const DfsEdge& e : edges_) {
    out << "(" << e.from << "," << e.to << "," << e.from_label << ","
        << e.edge_label << "," << e.to_label << ")";
  }
  return out.str();
}

}  // namespace partminer
