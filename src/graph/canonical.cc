#include "graph/canonical.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"

namespace partminer {

void ClearMinimalityCache() {}

namespace {

/// A partial embedding of the code built so far into the target graph.
struct Embedding {
  std::vector<VertexId> map;  // DFS index -> graph vertex.
  std::vector<int> inv;       // Graph vertex -> DFS index, -1 if unmapped.
  std::vector<bool> used;     // Per undirected edge id.
};

/// One possible next code entry together with the embedding and concrete
/// graph edge realizing it.
struct Candidate {
  DfsEdge tuple;
  int embedding_index = 0;
  EdgeEntry edge;  // Oriented from the already-mapped endpoint.
};

/// Enumerates all valid rightmost extensions of `code` under `emb`.
/// `on_path[v]` marks DFS indices on the rightmost path; `path` is the
/// rightmost path itself (root first); `next_index` is the DFS index a
/// forward edge would assign.
void CollectCandidates(const Graph& g, const DfsCode& code,
                       const std::vector<int>& path,
                       const std::vector<bool>& on_path, int next_index,
                       const Embedding& emb, int embedding_index,
                       std::vector<Candidate>* out) {
  if (path.empty()) return;
  const int rm = path.back();
  const VertexId rm_vertex = emb.map[rm];

  // Backward extensions: from the rightmost vertex to a rightmost-path
  // vertex. If the previous code entry is a backward edge from the same
  // source, only larger targets keep the code valid.
  int min_backward_to = -1;
  if (!code.empty()) {
    const DfsEdge& last = code[code.size() - 1];
    if (!last.IsForward() && last.from == rm) min_backward_to = last.to + 1;
  }
  for (const EdgeEntry& e : g.adjacency(rm_vertex)) {
    if (emb.used[e.eid]) continue;
    const int j = e.to < static_cast<VertexId>(emb.inv.size()) ? emb.inv[e.to]
                                                               : -1;
    if (j < 0 || !on_path[j] || j < min_backward_to) continue;
    Candidate c;
    c.tuple = DfsEdge{rm, j, g.vertex_label(rm_vertex), e.label,
                      g.vertex_label(e.to)};
    c.embedding_index = embedding_index;
    c.edge = e;
    out->push_back(c);
  }

  // Forward extensions: from any rightmost-path vertex to an unmapped
  // vertex, which receives DFS index `next_index`.
  for (const int i : path) {
    const VertexId u = emb.map[i];
    for (const EdgeEntry& e : g.adjacency(u)) {
      if (emb.used[e.eid]) continue;
      if (emb.inv[e.to] != -1) continue;
      Candidate c;
      c.tuple = DfsEdge{i, next_index, g.vertex_label(u), e.label,
                        g.vertex_label(e.to)};
      c.embedding_index = embedding_index;
      c.edge = e;
      out->push_back(c);
    }
  }
}

Embedding ExtendEmbedding(const Embedding& emb, const Candidate& c) {
  Embedding next = emb;
  next.used[c.edge.eid] = true;
  if (c.tuple.IsForward()) {
    PM_CHECK_EQ(static_cast<int>(next.map.size()), c.tuple.to);
    next.map.push_back(c.edge.to);
    next.inv[c.edge.to] = c.tuple.to;
  }
  return next;
}

/// Seeds the search: all single-edge embeddings realizing the minimal (or,
/// for the exhaustive variant, every) initial tuple.
std::vector<Candidate> InitialCandidates(const Graph& g) {
  std::vector<Candidate> out;
  for (VertexId u = 0; u < g.VertexCount(); ++u) {
    for (const EdgeEntry& e : g.adjacency(u)) {
      Candidate c;
      c.tuple = DfsEdge{0, 1, g.vertex_label(u), e.label,
                        g.vertex_label(e.to)};
      c.embedding_index = -1;  // No parent embedding yet.
      c.edge = e;
      out.push_back(c);
    }
  }
  return out;
}

Embedding SeedEmbedding(const Graph& g, const Candidate& c) {
  Embedding emb;
  emb.inv.assign(g.VertexCount(), -1);
  emb.used.assign(g.EdgeCount(), false);
  emb.map = {c.edge.from, c.edge.to};
  emb.inv[c.edge.from] = 0;
  emb.inv[c.edge.to] = 1;
  emb.used[c.edge.eid] = true;
  return emb;
}

/// Smallest candidate tuple, or nullptr when `cands` is empty.
const Candidate* MinCandidate(const std::vector<Candidate>& cands) {
  const Candidate* best = nullptr;
  for (const Candidate& c : cands) {
    if (best == nullptr || CompareDfsEdge(c.tuple, best->tuple) < 0) {
      best = &c;
    }
  }
  return best;
}

/// Runs the greedy stepwise minimization. When `reference` is non-null the
/// run compares each chosen tuple against (*reference)[step] and stops early:
/// result -1 means the graph admits a smaller code than the reference, 0
/// means the greedy code equals the reference. When `reference` is null the
/// greedy minimum code is written to `out`. Returns false only on a dead end
/// (never expected; see the argument in MinimumDfsCode).
bool GreedyMinimize(const Graph& g, const DfsCode* reference, DfsCode* out,
                    int* comparison) {
  const int edge_total = g.EdgeCount();
  PM_CHECK_GT(edge_total, 0);

  DfsCode code;
  std::vector<Embedding> embeddings;

  // Step 0.
  {
    std::vector<Candidate> cands = InitialCandidates(g);
    const Candidate* min = MinCandidate(cands);
    PM_CHECK(min != nullptr);
    if (reference != nullptr) {
      const int cmp = CompareDfsEdge(min->tuple, (*reference)[0]);
      if (cmp != 0) {
        *comparison = cmp;
        return true;
      }
    }
    code.Append(min->tuple);
    for (const Candidate& c : cands) {
      if (CompareDfsEdge(c.tuple, min->tuple) == 0) {
        embeddings.push_back(SeedEmbedding(g, c));
      }
    }
  }

  while (static_cast<int>(code.size()) < edge_total) {
    const std::vector<int> path = code.RightmostPath();
    std::vector<bool> on_path(code.VertexCount(), false);
    for (const int i : path) on_path[i] = true;
    const int next_index = code.VertexCount();

    std::vector<Candidate> cands;
    for (size_t ei = 0; ei < embeddings.size(); ++ei) {
      CollectCandidates(g, code, path, on_path, next_index, embeddings[ei],
                        static_cast<int>(ei), &cands);
    }
    const Candidate* min = MinCandidate(cands);
    if (min == nullptr) return false;  // Dead end (defensive; see caller).

    if (reference != nullptr) {
      const int cmp = CompareDfsEdge(min->tuple, (*reference)[code.size()]);
      if (cmp != 0) {
        *comparison = cmp;
        return true;
      }
    }

    std::vector<Embedding> next;
    for (const Candidate& c : cands) {
      if (CompareDfsEdge(c.tuple, min->tuple) == 0) {
        next.push_back(ExtendEmbedding(embeddings[c.embedding_index], c));
      }
    }
    code.Append(min->tuple);
    embeddings = std::move(next);
  }

  if (comparison != nullptr) *comparison = 0;
  if (out != nullptr) *out = std::move(code);
  return true;
}

/// Full backtracking search over valid DFS codes, exploring candidate tuples
/// in ascending order; the first complete code found is the minimum.
bool ExhaustiveSearch(const Graph& g, DfsCode* code,
                      std::vector<Embedding>* embeddings, int edge_total,
                      DfsCode* result) {
  if (static_cast<int>(code->size()) == edge_total) {
    *result = *code;
    return true;
  }
  const std::vector<int> path = code->RightmostPath();
  std::vector<bool> on_path(code->VertexCount(), false);
  for (const int i : path) on_path[i] = true;
  const int next_index = code->VertexCount();

  std::vector<Candidate> cands;
  for (size_t ei = 0; ei < embeddings->size(); ++ei) {
    CollectCandidates(g, *code, path, on_path, next_index, (*embeddings)[ei],
                      static_cast<int>(ei), &cands);
  }
  if (cands.empty()) return false;

  // Distinct tuples in ascending order.
  std::vector<DfsEdge> tuples;
  for (const Candidate& c : cands) tuples.push_back(c.tuple);
  std::sort(tuples.begin(), tuples.end(),
            [](const DfsEdge& a, const DfsEdge& b) {
              return CompareDfsEdge(a, b) < 0;
            });
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());

  for (const DfsEdge& tuple : tuples) {
    std::vector<Embedding> next;
    for (const Candidate& c : cands) {
      if (CompareDfsEdge(c.tuple, tuple) == 0) {
        next.push_back(ExtendEmbedding((*embeddings)[c.embedding_index], c));
      }
    }
    code->Append(tuple);
    if (ExhaustiveSearch(g, code, &next, edge_total, result)) return true;
    code->PopBack();
  }
  return false;
}

}  // namespace

DfsCode MinimumDfsCode(const Graph& graph) {
  DfsCode result;
  if (GreedyMinimize(graph, /*reference=*/nullptr, &result,
                     /*comparison=*/nullptr)) {
    return result;
  }
  // Greedy construction cannot dead-end for connected graphs: a vertex only
  // leaves the rightmost path once all its incident edges are used, because
  // forward extensions from deeper vertices and backward extensions from the
  // rightmost vertex always compare smaller than the extension that would
  // remove it from the path. The fallback below is purely defensive.
  PM_LOG(Warning) << "greedy minimum-DFS-code construction dead-ended; "
                     "falling back to exhaustive search";
  return MinimumDfsCodeExhaustive(graph);
}

DfsCode MinimumDfsCodeExhaustive(const Graph& graph) {
  const int edge_total = graph.EdgeCount();
  PM_CHECK_GT(edge_total, 0);

  std::vector<Candidate> initial = InitialCandidates(graph);
  std::vector<DfsEdge> tuples;
  for (const Candidate& c : initial) tuples.push_back(c.tuple);
  std::sort(tuples.begin(), tuples.end(),
            [](const DfsEdge& a, const DfsEdge& b) {
              return CompareDfsEdge(a, b) < 0;
            });
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());

  DfsCode result;
  for (const DfsEdge& tuple : tuples) {
    DfsCode code;
    code.Append(tuple);
    std::vector<Embedding> embeddings;
    for (const Candidate& c : initial) {
      if (CompareDfsEdge(c.tuple, tuple) == 0) {
        embeddings.push_back(SeedEmbedding(graph, c));
      }
    }
    if (ExhaustiveSearch(graph, &code, &embeddings, edge_total, &result)) {
      return result;
    }
  }
  PM_CHECK(false) << "no valid DFS code found; graph disconnected?";
  return result;
}

bool IsMinimalDfsCode(const DfsCode& code) {
  PM_METRIC_COUNTER("miner.minimality_checks")->Increment();
  if (code.empty()) return true;

  const Graph g = code.ToGraph();
  int comparison = 1;
  const bool completed =
      GreedyMinimize(g, &code, /*out=*/nullptr, &comparison);
  PM_CHECK(completed) << "greedy minimization dead-ended during is-min check";
  // comparison < 0: a strictly smaller code exists -> not minimal.
  // comparison == 0: greedy reproduced `code` -> minimal.
  // comparison > 0 cannot happen for valid codes (the given code is itself a
  //   candidate at every step).
  PM_CHECK_LE(comparison, 0) << "invalid DFS code passed to IsMinimalDfsCode: "
                             << code.ToString();
  return comparison == 0;
}

bool AreIsomorphic(const Graph& a, const Graph& b) {
  if (a.VertexCount() != b.VertexCount() || a.EdgeCount() != b.EdgeCount()) {
    return false;
  }
  if (a.EdgeCount() == 0) {
    // Edgeless graphs: compare vertex label multisets.
    std::vector<Label> la, lb;
    for (VertexId v = 0; v < a.VertexCount(); ++v) {
      la.push_back(a.vertex_label(v));
    }
    for (VertexId v = 0; v < b.VertexCount(); ++v) {
      lb.push_back(b.vertex_label(v));
    }
    std::sort(la.begin(), la.end());
    std::sort(lb.begin(), lb.end());
    return la == lb;
  }
  return MinimumDfsCode(a) == MinimumDfsCode(b);
}

}  // namespace partminer
