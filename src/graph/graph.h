#ifndef PARTMINER_GRAPH_GRAPH_H_
#define PARTMINER_GRAPH_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"

namespace partminer {

/// Vertex index within a single graph.
using VertexId = int32_t;
/// Vertex or edge label. Labels are small non-negative integers; the paper's
/// parameter N bounds the number of distinct labels.
using Label = int32_t;
/// Graph identifier within a database.
using GraphId = int32_t;

constexpr Label kNoLabel = -1;

/// A half-edge in an adjacency list: the edge (from, to) with label `label`.
/// Undirected edges are stored as two half-edges, one per endpoint. `eid`
/// identifies the undirected edge (both half-edges share it), which lets the
/// isomorphism code mark edges used.
struct EdgeEntry {
  VertexId from = 0;
  VertexId to = 0;
  Label label = kNoLabel;
  int32_t eid = -1;
};

/// An undirected labeled graph G = (V, E, L_V, L_E) per Section 3 of the
/// paper. Vertices are dense integers [0, VertexCount()). The graph also
/// carries per-vertex update frequencies (`ufreq`), which drive the
/// partitioning criteria of Section 4.1.
class Graph {
 public:
  Graph() = default;

  /// Constructs a graph with `n` vertices, all labeled `kNoLabel`.
  explicit Graph(int n) { Resize(n); }

  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  /// Grows (or shrinks) the vertex set to `n` vertices. New vertices get
  /// label kNoLabel and ufreq 0.
  void Resize(int n) {
    vertex_labels_.resize(n, kNoLabel);
    adjacency_.resize(n);
    update_freq_.resize(n, 0);
  }

  /// Appends a vertex with the given label; returns its id.
  VertexId AddVertex(Label label) {
    vertex_labels_.push_back(label);
    adjacency_.emplace_back();
    update_freq_.push_back(0);
    return static_cast<VertexId>(vertex_labels_.size() - 1);
  }

  /// Adds an undirected edge {u, v} with label `label`; returns the edge id.
  /// Self-loops and duplicate edges are not supported by the mining
  /// algorithms and are rejected with a fatal check.
  int32_t AddEdge(VertexId u, VertexId v, Label label) {
    PM_CHECK_NE(u, v);
    PM_CHECK_GE(u, 0);
    PM_CHECK_GE(v, 0);
    PM_CHECK_LT(u, VertexCount());
    PM_CHECK_LT(v, VertexCount());
    const int32_t eid = edge_count_++;
    adjacency_[u].push_back(EdgeEntry{u, v, label, eid});
    adjacency_[v].push_back(EdgeEntry{v, u, label, eid});
    return eid;
  }

  int VertexCount() const { return static_cast<int>(vertex_labels_.size()); }
  /// Number of undirected edges; the "size" of the graph in the paper.
  int EdgeCount() const { return edge_count_; }

  Label vertex_label(VertexId v) const { return vertex_labels_[v]; }
  void set_vertex_label(VertexId v, Label label) { vertex_labels_[v] = label; }

  /// Half-edges incident to `v`.
  const std::vector<EdgeEntry>& adjacency(VertexId v) const {
    return adjacency_[v];
  }

  /// Degree of `v`.
  int Degree(VertexId v) const {
    return static_cast<int>(adjacency_[v].size());
  }

  /// Returns the label of edge {u, v}, or kNoLabel if absent.
  Label EdgeLabelBetween(VertexId u, VertexId v) const {
    for (const EdgeEntry& e : adjacency_[u]) {
      if (e.to == v) return e.label;
    }
    return kNoLabel;
  }

  /// True if an edge {u, v} exists.
  bool HasEdge(VertexId u, VertexId v) const {
    return EdgeLabelBetween(u, v) != kNoLabel;
  }

  /// Relabels every half-edge of undirected edge {u, v}. Returns false when
  /// the edge does not exist.
  bool SetEdgeLabel(VertexId u, VertexId v, Label label);

  /// Per-vertex update frequency (Section 4.1). Incremented by the update
  /// generator whenever an update touches the vertex.
  uint32_t update_freq(VertexId v) const { return update_freq_[v]; }
  void set_update_freq(VertexId v, uint32_t f) { update_freq_[v] = f; }
  void BumpUpdateFreq(VertexId v) { ++update_freq_[v]; }

  /// True when a path exists between every pair of vertices (and the graph
  /// is nonempty).
  bool IsConnected() const;

  /// Lists each undirected edge exactly once (from < to not guaranteed; the
  /// entry is the half-edge stored first).
  std::vector<EdgeEntry> UndirectedEdges() const;

  /// Renumbers vertices so that only vertices incident to at least one edge
  /// remain, dropping isolated vertices. Returns the mapping old->new
  /// (-1 for dropped vertices).
  std::vector<VertexId> CompactIsolatedVertices();

  /// Debug rendering: one line per vertex and edge.
  std::string DebugString() const;

 private:
  std::vector<Label> vertex_labels_;
  std::vector<std::vector<EdgeEntry>> adjacency_;
  std::vector<uint32_t> update_freq_;
  int32_t edge_count_ = 0;
};

/// A graph database: a set of (gid, Graph) tuples (Section 3).
class GraphDatabase {
 public:
  GraphDatabase() = default;

  /// Adds a graph; returns its database index. `gid` defaults to the index.
  GraphId Add(Graph graph, GraphId gid = -1) {
    const GraphId index = static_cast<GraphId>(graphs_.size());
    graphs_.push_back(std::move(graph));
    gids_.push_back(gid < 0 ? index : gid);
    return index;
  }

  int size() const { return static_cast<int>(graphs_.size()); }
  bool empty() const { return graphs_.empty(); }

  const Graph& graph(int index) const { return graphs_[index]; }
  Graph& mutable_graph(int index) { return graphs_[index]; }
  GraphId gid(int index) const { return gids_[index]; }

  /// Total number of edges across all member graphs.
  int64_t TotalEdges() const {
    int64_t total = 0;
    for (const Graph& g : graphs_) total += g.EdgeCount();
    return total;
  }

 private:
  std::vector<Graph> graphs_;
  std::vector<GraphId> gids_;
};

}  // namespace partminer

#endif  // PARTMINER_GRAPH_GRAPH_H_
