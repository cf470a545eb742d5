#include "miner/extensions.h"

#include <algorithm>
#include <map>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "graph/canonical.h"

namespace partminer {

PatternSet FrequentSingleEdges(const GraphDatabase& db, int min_support) {
  // Canonical 1-edge code -> TID set, one database scan. TidSet::Add is
  // idempotent, so repeated triples within a graph need no dedup pass.
  std::map<std::tuple<Label, Label, Label>, TidSet> tids;
  for (int i = 0; i < db.size(); ++i) {
    const Graph& g = db.graph(i);
    for (const EdgeEntry& e : g.UndirectedEdges()) {
      Label a = g.vertex_label(e.from);
      Label b = g.vertex_label(e.to);
      if (a > b) std::swap(a, b);
      tids[{a, e.label, b}].Add(i);
    }
  }
  PatternSet out;
  for (auto& [triple, list] : tids) {
    const int support = list.Count();
    if (support < min_support) continue;
    PatternInfo info;
    info.code.Append(DfsEdge{0, 1, std::get<0>(triple), std::get<1>(triple),
                             std::get<2>(triple)});
    info.support = support;
    info.tids = std::move(list);
    out.Upsert(std::move(info));
  }
  return out;
}

std::vector<DfsCode> GenerateExtensions(const Graph& pattern,
                                        const PatternSet& frequent_edges) {
  // Vocabulary views: label -> (edge label, other vertex label) for new
  // vertex attachment, and (label pair) -> edge labels for edge closing.
  std::map<Label, std::vector<std::pair<Label, Label>>> attach;
  std::map<std::pair<Label, Label>, std::vector<Label>> close;
  for (const PatternInfo& p : frequent_edges.patterns()) {
    PM_CHECK_EQ(p.code.size(), 1u);
    const Label a = p.code[0].from_label;
    const Label e = p.code[0].edge_label;
    const Label b = p.code[0].to_label;
    attach[a].emplace_back(e, b);
    if (a != b) attach[b].emplace_back(e, a);
    close[{std::min(a, b), std::max(a, b)}].push_back(e);
  }

  std::unordered_set<DfsCode, DfsCodeHash> seen;
  std::vector<DfsCode> out;
  auto emit = [&](Graph&& extended) {
    DfsCode code = MinimumDfsCode(extended);
    if (seen.insert(code).second) out.push_back(std::move(code));
  };

  const int n = pattern.VertexCount();
  // Attach a new vertex to every existing vertex.
  for (VertexId v = 0; v < n; ++v) {
    const auto it = attach.find(pattern.vertex_label(v));
    if (it == attach.end()) continue;
    for (const auto& [edge_label, other_label] : it->second) {
      Graph extended = pattern;
      const VertexId nv = extended.AddVertex(other_label);
      extended.AddEdge(v, nv, edge_label);
      emit(std::move(extended));
    }
  }
  // Close an edge between two non-adjacent existing vertices.
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (pattern.HasEdge(u, v)) continue;
      const Label a = std::min(pattern.vertex_label(u), pattern.vertex_label(v));
      const Label b = std::max(pattern.vertex_label(u), pattern.vertex_label(v));
      const auto it = close.find({a, b});
      if (it == close.end()) continue;
      for (const Label edge_label : it->second) {
        Graph extended = pattern;
        extended.AddEdge(u, v, edge_label);
        emit(std::move(extended));
      }
    }
  }
  return out;
}

std::vector<DfsCode> RightmostExtensions(const DfsCode& base,
                                         const PatternSet& frequent_edges) {
  std::map<Label, std::vector<std::pair<Label, Label>>> attach;
  std::map<std::pair<Label, Label>, std::vector<Label>> close;
  for (const PatternInfo& p : frequent_edges.patterns()) {
    const Label a = p.code[0].from_label;
    const Label e = p.code[0].edge_label;
    const Label b = p.code[0].to_label;
    attach[a].emplace_back(e, b);
    if (a != b) attach[b].emplace_back(e, a);
    close[{std::min(a, b), std::max(a, b)}].push_back(e);
  }

  const Graph pattern = base.ToGraph();  // Vertex v = DFS index v.
  const std::vector<int> rmpath = base.RightmostPath();
  const int maxtoc = rmpath.back();
  const int parent_of_rm = rmpath.size() >= 2 ? rmpath[rmpath.size() - 2] : -1;

  // Ascending-backward validity: after a backward edge from the rightmost
  // vertex, further backward edges must target larger DFS indices.
  int min_backward_to = 0;
  if (!base.empty()) {
    const DfsEdge& last = base[base.size() - 1];
    if (!last.IsForward() && last.from == maxtoc) {
      min_backward_to = last.to + 1;
    }
  }

  std::vector<DfsCode> out;
  DfsCode extended = base;
  auto try_tuple = [&](const DfsEdge& tuple) {
    extended.Append(tuple);
    if (IsMinimalDfsCode(extended)) out.push_back(extended);
    extended.PopBack();
  };

  // Backward extensions: rightmost vertex -> earlier rightmost-path vertex.
  for (const int j : rmpath) {
    if (j == maxtoc || j == parent_of_rm || j < min_backward_to) continue;
    if (pattern.HasEdge(maxtoc, j)) continue;
    const Label a = std::min(pattern.vertex_label(maxtoc),
                             pattern.vertex_label(j));
    const Label b = std::max(pattern.vertex_label(maxtoc),
                             pattern.vertex_label(j));
    const auto it = close.find({a, b});
    if (it == close.end()) continue;
    for (const Label edge_label : it->second) {
      try_tuple(DfsEdge{maxtoc, j, pattern.vertex_label(maxtoc), edge_label,
                        pattern.vertex_label(j)});
    }
  }

  // Forward extensions from every rightmost-path vertex.
  const int next_index = base.VertexCount();
  for (const int i : rmpath) {
    const auto it = attach.find(pattern.vertex_label(i));
    if (it == attach.end()) continue;
    for (const auto& [edge_label, other_label] : it->second) {
      try_tuple(DfsEdge{i, next_index, pattern.vertex_label(i), edge_label,
                        other_label});
    }
  }
  return out;
}

}  // namespace partminer
