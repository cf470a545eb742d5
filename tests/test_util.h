#ifndef PARTMINER_TESTS_TEST_UTIL_H_
#define PARTMINER_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "common/random.h"
#include "graph/graph.h"
#include "miner/pattern_set.h"

namespace partminer {
namespace testutil {

/// Random connected labeled graph: a random spanning tree over `vertices`
/// vertices plus `extra_edges` random chords (duplicates skipped). Labels
/// are uniform over [0, vertex_labels) and [0, edge_labels).
inline Graph RandomConnectedGraph(Rng* rng, int vertices, int extra_edges,
                                  int vertex_labels, int edge_labels) {
  Graph g;
  for (int i = 0; i < vertices; ++i) {
    g.AddVertex(static_cast<Label>(rng->Uniform(vertex_labels)));
  }
  for (int v = 1; v < vertices; ++v) {
    const VertexId u = static_cast<VertexId>(rng->Uniform(v));
    g.AddEdge(u, v, static_cast<Label>(rng->Uniform(edge_labels)));
  }
  for (int i = 0; i < extra_edges; ++i) {
    const VertexId u = static_cast<VertexId>(rng->Uniform(vertices));
    const VertexId v = static_cast<VertexId>(rng->Uniform(vertices));
    if (u == v || g.HasEdge(u, v)) continue;
    g.AddEdge(u, v, static_cast<Label>(rng->Uniform(edge_labels)));
  }
  return g;
}

/// Every database index of `db`, ascending: the graph list of a full scan.
inline std::vector<int> AllGraphs(const GraphDatabase& db) {
  std::vector<int> all(db.size());
  std::iota(all.begin(), all.end(), 0);
  return all;
}

/// Random database of connected graphs.
inline GraphDatabase RandomDatabase(Rng* rng, int graphs, int vertices,
                                    int extra_edges, int vertex_labels,
                                    int edge_labels) {
  GraphDatabase db;
  for (int i = 0; i < graphs; ++i) {
    const int n = 2 + static_cast<int>(rng->Uniform(vertices - 1));
    const int chords = static_cast<int>(rng->Uniform(extra_edges + 1));
    db.Add(RandomConnectedGraph(rng, n, chords, vertex_labels, edge_labels));
  }
  return db;
}

/// Exact pattern-set equality: the same codes, each with the same support
/// and TIDs. Order is not compared.
inline void ExpectSamePatterns(const PatternSet& expected,
                               const PatternSet& actual,
                               const std::string& what) {
  EXPECT_EQ(expected.SortedCodeStrings(), actual.SortedCodeStrings()) << what;
  for (const PatternInfo& p : expected.patterns()) {
    const PatternInfo* q = actual.Find(p.code);
    ASSERT_NE(q, nullptr) << what << ": missing " << p.code.ToString();
    EXPECT_EQ(p.support, q->support) << what << ": " << p.code.ToString();
    EXPECT_EQ(p.tids, q->tids) << what << ": " << p.code.ToString();
  }
}

/// Applies a random vertex permutation, producing an isomorphic copy.
inline Graph Permuted(Rng* rng, const Graph& g) {
  const int n = g.VertexCount();
  std::vector<VertexId> perm(n);
  for (int i = 0; i < n; ++i) perm[i] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng->Uniform(i + 1)]);
  }
  Graph out(n);
  for (VertexId v = 0; v < n; ++v) {
    out.set_vertex_label(perm[v], g.vertex_label(v));
  }
  for (const EdgeEntry& e : g.UndirectedEdges()) {
    out.AddEdge(perm[e.from], perm[e.to], e.label);
  }
  return out;
}

/// The example graph of Figure 1 in the paper: vertex labels {0,0,1,2},
/// edges (v0,v1,a) (v1,v2,a) (v1,v3,c) (v3,v0,b) with a=0, b=1, c=2.
inline Graph PaperFigure1Graph() {
  Graph g;
  g.AddVertex(0);
  g.AddVertex(0);
  g.AddVertex(1);
  g.AddVertex(2);
  g.AddEdge(0, 1, 0);  // a
  g.AddEdge(1, 2, 0);  // a
  g.AddEdge(1, 3, 2);  // c
  g.AddEdge(3, 0, 1);  // b
  return g;
}

}  // namespace testutil
}  // namespace partminer

#endif  // PARTMINER_TESTS_TEST_UTIL_H_
