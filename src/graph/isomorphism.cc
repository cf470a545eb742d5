#include "graph/isomorphism.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"

namespace partminer {

SubgraphMatcher::SubgraphMatcher(const Graph& pattern) : pattern_(pattern) {
  const int n = pattern_.VertexCount();
  PM_CHECK_GT(n, 0);

  // Connected matching order, most-constrained first: start from a vertex of
  // maximal degree, then repeatedly add the unvisited vertex with the most
  // already-ordered neighbors (ties: higher degree).
  std::vector<bool> placed(n, false);
  std::vector<int> connections(n, 0);
  order_.reserve(n);

  VertexId start = 0;
  for (VertexId v = 1; v < n; ++v) {
    if (pattern_.Degree(v) > pattern_.Degree(start)) start = v;
  }
  order_.push_back(start);
  placed[start] = true;
  for (const EdgeEntry& e : pattern_.adjacency(start)) ++connections[e.to];

  while (static_cast<int>(order_.size()) < n) {
    VertexId best = -1;
    for (VertexId v = 0; v < n; ++v) {
      if (placed[v]) continue;
      if (best == -1 || connections[v] > connections[best] ||
          (connections[v] == connections[best] &&
           pattern_.Degree(v) > pattern_.Degree(best))) {
        best = v;
      }
    }
    PM_CHECK_GT(connections[best], 0)
        << "SubgraphMatcher requires a connected pattern";
    order_.push_back(best);
    placed[best] = true;
    for (const EdgeEntry& e : pattern_.adjacency(best)) ++connections[e.to];
  }

  // Adjacency constraints to earlier positions, per position.
  std::vector<int> position_of(n, -1);
  for (int p = 0; p < n; ++p) position_of[order_[p]] = p;
  constraints_.resize(n);
  pattern_degree_.resize(n);
  for (int p = 0; p < n; ++p) {
    pattern_degree_[p] = pattern_.Degree(order_[p]);
    for (const EdgeEntry& e : pattern_.adjacency(order_[p])) {
      const int q = position_of[e.to];
      if (q < p) constraints_[p].push_back(Constraint{q, e.label});
    }
  }
}

bool SubgraphMatcher::MatchFrom(const Graph& host, int position,
                                std::vector<VertexId>* assignment,
                                std::vector<bool>* used) const {
  if (position == static_cast<int>(order_.size())) return true;

  const Label want_label = pattern_.vertex_label(order_[position]);
  const auto& cons = constraints_[position];

  auto try_vertex = [&](VertexId h) -> bool {
    if ((*used)[h]) return false;
    if (host.vertex_label(h) != want_label) return false;
    if (host.Degree(h) < pattern_degree_[position]) return false;
    for (const Constraint& c : cons) {
      if (host.EdgeLabelBetween(h, (*assignment)[c.earlier_position]) !=
          c.edge_label) {
        return false;
      }
    }
    (*assignment)[position] = h;
    (*used)[h] = true;
    if (MatchFrom(host, position + 1, assignment, used)) return true;
    (*used)[h] = false;
    return false;
  };

  if (cons.empty()) {
    // Only position 0 (connected order): try every host vertex.
    for (VertexId h = 0; h < host.VertexCount(); ++h) {
      if (try_vertex(h)) return true;
    }
    return false;
  }

  // Candidates are neighbors of the host vertex matched to the first
  // constraint; the edge-label check inside try_vertex re-verifies.
  const VertexId anchor = (*assignment)[cons[0].earlier_position];
  for (const EdgeEntry& e : host.adjacency(anchor)) {
    if (e.label != cons[0].edge_label) continue;
    if (try_vertex(e.to)) return true;
  }
  return false;
}

bool SubgraphMatcher::Matches(const Graph& host) const {
  PM_METRIC_COUNTER("iso.subgraph_tests")->Increment();
  if (host.VertexCount() < pattern_.VertexCount() ||
      host.EdgeCount() < pattern_.EdgeCount()) {
    return false;
  }
  std::vector<VertexId> assignment(order_.size(), -1);
  std::vector<bool> used(host.VertexCount(), false);
  return MatchFrom(host, 0, &assignment, &used);
}

bool ContainsSubgraph(const Graph& host, const Graph& pattern) {
  return SubgraphMatcher(pattern).Matches(host);
}

}  // namespace partminer
