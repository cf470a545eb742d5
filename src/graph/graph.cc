#include "graph/graph.h"

#include <sstream>
#include <vector>

namespace partminer {

bool Graph::SetEdgeLabel(VertexId u, VertexId v, Label label) {
  bool found = false;
  for (EdgeEntry& e : adjacency_[u]) {
    if (e.to == v) {
      e.label = label;
      found = true;
    }
  }
  if (!found) return false;
  for (EdgeEntry& e : adjacency_[v]) {
    if (e.to == u) e.label = label;
  }
  return true;
}

bool Graph::IsConnected() const {
  const int n = VertexCount();
  if (n == 0) return false;
  std::vector<bool> seen(n, false);
  std::vector<VertexId> stack = {0};
  seen[0] = true;
  int visited = 1;
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    for (const EdgeEntry& e : adjacency_[v]) {
      if (!seen[e.to]) {
        seen[e.to] = true;
        ++visited;
        stack.push_back(e.to);
      }
    }
  }
  return visited == n;
}

std::vector<EdgeEntry> Graph::UndirectedEdges() const {
  std::vector<EdgeEntry> edges(edge_count_);
  std::vector<bool> emitted(edge_count_, false);
  for (VertexId v = 0; v < VertexCount(); ++v) {
    for (const EdgeEntry& e : adjacency_[v]) {
      if (!emitted[e.eid]) {
        emitted[e.eid] = true;
        edges[e.eid] = e;
      }
    }
  }
  return edges;
}

std::vector<VertexId> Graph::CompactIsolatedVertices() {
  const int n = VertexCount();
  std::vector<VertexId> mapping(n, -1);
  int next = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (!adjacency_[v].empty()) mapping[v] = next++;
  }
  if (next == n) return mapping;  // Nothing to drop.

  std::vector<Label> labels(next);
  std::vector<std::vector<EdgeEntry>> adjacency(next);
  std::vector<uint32_t> ufreq(next);
  for (VertexId v = 0; v < n; ++v) {
    if (mapping[v] < 0) continue;
    labels[mapping[v]] = vertex_labels_[v];
    ufreq[mapping[v]] = update_freq_[v];
    adjacency[mapping[v]].reserve(adjacency_[v].size());
    for (const EdgeEntry& e : adjacency_[v]) {
      adjacency[mapping[v]].push_back(
          EdgeEntry{mapping[e.from], mapping[e.to], e.label, e.eid});
    }
  }
  vertex_labels_ = std::move(labels);
  adjacency_ = std::move(adjacency);
  update_freq_ = std::move(ufreq);
  return mapping;
}

std::string Graph::DebugString() const {
  std::ostringstream out;
  for (VertexId v = 0; v < VertexCount(); ++v) {
    out << "v " << v << " " << vertex_labels_[v] << "\n";
  }
  for (const EdgeEntry& e : UndirectedEdges()) {
    out << "e " << e.from << " " << e.to << " " << e.label << "\n";
  }
  return out.str();
}

}  // namespace partminer
