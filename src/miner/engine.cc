#include "miner/engine.h"

#include <algorithm>
#include <numeric>

#include "common/fnv.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "graph/canonical.h"
#include "obs/metrics.h"

namespace partminer {
namespace engine {

void History::Build(const Graph& g, const Embedding& e) {
  edges_.clear();
  for (const Embedding* p = &e; p != nullptr; p = p->prev) {
    edges_.push_back(p->edge);
  }
  std::reverse(edges_.begin(), edges_.end());

  // Grow-only scratch: stamps from earlier epochs read as "absent", so a
  // fresh epoch clears the arrays in O(1).
  ++epoch_;
  if (edge_stamp_.size() < static_cast<size_t>(g.EdgeCount())) {
    edge_stamp_.resize(g.EdgeCount(), 0);
  }
  if (vertex_stamp_.size() < static_cast<size_t>(g.VertexCount())) {
    vertex_stamp_.resize(g.VertexCount(), 0);
  }
  for (const EdgeEntry* edge : edges_) {
    edge_stamp_[edge->eid] = epoch_;
    vertex_stamp_[edge->from] = epoch_;
    vertex_stamp_[edge->to] = epoch_;
  }
}

std::vector<int> BuildRightmostPathPositions(const DfsCode& code) {
  std::vector<int> rmpath;
  int expected_from = -1;
  for (int i = static_cast<int>(code.size()) - 1; i >= 0; --i) {
    const DfsEdge& e = code[i];
    if (e.IsForward() && (rmpath.empty() || expected_from == e.to)) {
      rmpath.push_back(i);
      expected_from = e.from;
    }
  }
  return rmpath;
}

namespace {

uint64_t HashTuple(const DfsEdge& t) {
  // One FNV-1a round per field (see FnvStep).
  uint64_t h = kFnvOffsetBasis;
  h = FnvStep(h, static_cast<uint32_t>(t.from));
  h = FnvStep(h, static_cast<uint32_t>(t.to));
  h = FnvStep(h, static_cast<uint32_t>(t.from_label));
  h = FnvStep(h, static_cast<uint32_t>(t.edge_label));
  h = FnvStep(h, static_cast<uint32_t>(t.to_label));
  return h;
}

size_t NextPow2(size_t v) {
  size_t p = 16;
  while (p < v) p <<= 1;
  return p;
}

/// Each thread keeps one History whose stamp arrays grow to the largest
/// graph it has seen; Build is then O(code length) per embedding.
History& ThreadLocalHistory() {
  thread_local History history;
  return history;
}

}  // namespace

size_t ExtensionMap::Probe(const DfsEdge& tuple) const {
  const size_t mask = slots_.size() - 1;
  size_t i = HashTuple(tuple) & mask;
  while (slots_[i] != -1 && !(entries_[slots_[i]].first == tuple)) {
    i = (i + 1) & mask;
  }
  return i;
}

void ExtensionMap::Rehash(size_t buckets) {
  slots_.assign(buckets, -1);
  for (size_t e = 0; e < entries_.size(); ++e) {
    slots_[Probe(entries_[e].first)] = static_cast<int32_t>(e);
  }
  index_valid_ = true;
}

Projected& ExtensionMap::operator[](const DfsEdge& tuple) {
  if (!index_valid_) {
    Rehash(NextPow2(std::max<size_t>(16, (entries_.size() + 1) * 2)));
  } else if ((entries_.size() + 1) * 2 > slots_.size()) {
    Rehash(slots_.size() * 2);
  }
  const size_t i = Probe(tuple);
  if (slots_[i] != -1) return entries_[slots_[i]].second;
  sorted_ = false;
  slots_[i] = static_cast<int32_t>(entries_.size());
  entries_.emplace_back(tuple, Projected());
  return entries_.back().second;
}

void ExtensionMap::EnsureSorted() const {
  if (sorted_) return;
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              return CompareDfsEdge(a.first, b.first) < 0;
            });
  sorted_ = true;
  index_valid_ = false;  // The sort permuted the entry indices.
}

ExtensionMap CollectRootExtensions(const GraphDatabase& db,
                                   const std::vector<int>& graph_indices) {
  ExtensionMap roots;
  for (const int i : graph_indices) {
    const Graph& g = db.graph(i);
    for (VertexId u = 0; u < g.VertexCount(); ++u) {
      for (const EdgeEntry& e : g.adjacency(u)) {
        const Label lu = g.vertex_label(u);
        const Label lv = g.vertex_label(e.to);
        if (lu > lv) continue;  // Mirror orientation is canonical.
        const DfsEdge tuple{0, 1, lu, e.label, lv};
        roots[tuple].push_back(Embedding{i, &e, nullptr});
      }
    }
  }
  int64_t embeddings = 0;
  for (const auto& [tuple, projected] : roots) {
    embeddings += static_cast<int64_t>(projected.size());
  }
  PM_METRIC_COUNTER("miner.root_extension_groups")->Add(roots.size());
  PM_METRIC_COUNTER("miner.root_extension_embeddings")->Add(embeddings);
  return roots;
}

ExtensionMap CollectExtensions(const GraphDatabase& db, const DfsCode& code,
                               const Projected& projected,
                               bool enable_order_pruning) {
  ExtensionMap extensions;
  const std::vector<int> rmpath = BuildRightmostPathPositions(code);
  PM_CHECK(!rmpath.empty());
  const int maxtoc = code[rmpath[0]].to;  // Rightmost vertex (DFS index).
  const Label min_label = code[0].from_label;

  History& history = ThreadLocalHistory();
  for (const Embedding& emb : projected) {
    const Graph& g = db.graph(emb.graph_index);
    history.Build(g, emb);
    const VertexId rm_host = history.edge(rmpath[0])->to;
    const Label rm_label = g.vertex_label(rm_host);

    // Backward extensions: rightmost vertex -> rightmost-path vertex.
    // Walk the path from the root downward so tuples with smaller targets
    // come first (the map sorts anyway; this is just deterministic).
    for (int j = static_cast<int>(rmpath.size()) - 1; j >= 1; --j) {
      const EdgeEntry* tree_edge = history.edge(rmpath[j]);
      for (const EdgeEntry& e : g.adjacency(rm_host)) {
        if (history.HasEdge(e.eid)) continue;
        if (e.to != tree_edge->from) continue;
        if (enable_order_pruning) {
          // A minimal code cannot close a cycle with an edge comparing
          // smaller than the tree edge it attaches below (gSpan pruning).
          const bool ok =
              tree_edge->label < e.label ||
              (tree_edge->label == e.label &&
               g.vertex_label(tree_edge->to) <= rm_label);
          if (!ok) continue;
        }
        const DfsEdge tuple{maxtoc, code[rmpath[j]].from, rm_label, e.label,
                            code[rmpath[j]].from_label};
        extensions[tuple].push_back(Embedding{emb.graph_index, &e, &emb});
      }
    }

    // Pure forward extensions from the rightmost vertex.
    for (const EdgeEntry& e : g.adjacency(rm_host)) {
      if (history.HasVertex(e.to)) continue;
      const Label to_label = g.vertex_label(e.to);
      if (enable_order_pruning && to_label < min_label) continue;
      const DfsEdge tuple{maxtoc, maxtoc + 1, rm_label, e.label, to_label};
      extensions[tuple].push_back(Embedding{emb.graph_index, &e, &emb});
    }

    // Forward extensions from the other rightmost-path vertices.
    for (const int pos : rmpath) {
      const EdgeEntry* tree_edge = history.edge(pos);
      const VertexId u = tree_edge->from;
      for (const EdgeEntry& e : g.adjacency(u)) {
        if (history.HasVertex(e.to)) continue;
        const Label to_label = g.vertex_label(e.to);
        if (enable_order_pruning) {
          if (to_label < min_label) continue;
          const bool ok = tree_edge->label < e.label ||
                          (tree_edge->label == e.label &&
                           g.vertex_label(tree_edge->to) <= to_label);
          if (!ok) continue;
        }
        const DfsEdge tuple{code[pos].from, maxtoc + 1,
                            code[pos].from_label, e.label, to_label};
        extensions[tuple].push_back(Embedding{emb.graph_index, &e, &emb});
      }
    }
  }
  int64_t embeddings = 0;
  for (const auto& [tuple, child] : extensions) {
    embeddings += static_cast<int64_t>(child.size());
  }
  PM_METRIC_COUNTER("miner.rightmost_extension_groups")
      ->Add(extensions.size());
  PM_METRIC_COUNTER("miner.rightmost_extension_embeddings")->Add(embeddings);
  // Each walked embedding is one subgraph-isomorphism occurrence whose
  // neighborhood was scanned — the projection-based counterpart of
  // iso.subgraph_tests on the explicit-matcher paths.
  PM_METRIC_COUNTER("iso.embedding_extensions")
      ->Add(static_cast<int64_t>(projected.size()));
  return extensions;
}

namespace {

/// Recursive matcher for ProjectCode: extends the partial assignment of DFS
/// indices to host vertices position by position, collecting the matched
/// host edge per code entry.
void MatchCode(const DfsCode& code, const Graph& g, size_t position,
               std::vector<VertexId>* assignment, std::vector<bool>* used,
               std::vector<bool>* vertex_used,
               std::vector<const EdgeEntry*>* matched, int graph_index,
               std::deque<Embedding>* arena, Projected* out) {
  if (position == code.size()) {
    // Materialize the chain in code order.
    const Embedding* prev = nullptr;
    for (const EdgeEntry* edge : *matched) {
      arena->push_back(Embedding{graph_index, edge, prev});
      prev = &arena->back();
    }
    out->push_back(arena->back());
    arena->pop_back();  // out holds the head by value; keep prevs in arena.
    return;
  }
  const DfsEdge& want = code[position];
  if (want.IsForward()) {
    const VertexId from = (*assignment)[want.from];
    for (const EdgeEntry& e : g.adjacency(from)) {
      if ((*used)[e.eid] || (*vertex_used)[e.to]) continue;
      if (e.label != want.edge_label) continue;
      if (g.vertex_label(e.to) != want.to_label) continue;
      (*assignment)[want.to] = e.to;
      (*used)[e.eid] = true;
      (*vertex_used)[e.to] = true;
      matched->push_back(&e);
      MatchCode(code, g, position + 1, assignment, used, vertex_used, matched,
                graph_index, arena, out);
      matched->pop_back();
      (*vertex_used)[e.to] = false;
      (*used)[e.eid] = false;
    }
  } else {
    const VertexId from = (*assignment)[want.from];
    const VertexId to = (*assignment)[want.to];
    for (const EdgeEntry& e : g.adjacency(from)) {
      if ((*used)[e.eid] || e.to != to) continue;
      if (e.label != want.edge_label) continue;
      (*used)[e.eid] = true;
      matched->push_back(&e);
      MatchCode(code, g, position + 1, assignment, used, vertex_used, matched,
                graph_index, arena, out);
      matched->pop_back();
      (*used)[e.eid] = false;
    }
  }
}

}  // namespace

Projected ProjectCode(const DfsCode& code, const GraphDatabase& db,
                      const std::vector<int>& graph_indices,
                      std::deque<Embedding>* arena) {
  Projected out;
  if (code.empty()) return out;
  const int pattern_vertices = code.VertexCount();
  // Scratch hoisted out of the per-graph loop. The used/vertex_used flags
  // are restored to false by the backtracker, so between graphs the arrays
  // only ever need to *grow* — no per-graph clear.
  std::vector<VertexId> assignment;
  std::vector<bool> used;
  std::vector<bool> vertex_used;
  std::vector<const EdgeEntry*> matched;
  matched.reserve(code.size());
  for (const int gi : graph_indices) {
    const Graph& g = db.graph(gi);
    assignment.assign(pattern_vertices, -1);
    if (used.size() < static_cast<size_t>(g.EdgeCount())) {
      used.resize(g.EdgeCount(), false);
    }
    if (vertex_used.size() < static_cast<size_t>(g.VertexCount())) {
      vertex_used.resize(g.VertexCount(), false);
    }
    // Seed position 0: every half-edge matching the first tuple.
    const DfsEdge& first = code[0];
    for (VertexId u = 0; u < g.VertexCount(); ++u) {
      if (g.vertex_label(u) != first.from_label) continue;
      for (const EdgeEntry& e : g.adjacency(u)) {
        if (e.label != first.edge_label) continue;
        if (g.vertex_label(e.to) != first.to_label) continue;
        assignment[0] = u;
        assignment[1] = e.to;
        used[e.eid] = true;
        vertex_used[u] = true;
        vertex_used[e.to] = true;
        matched.push_back(&e);
        MatchCode(code, g, 1, &assignment, &used, &vertex_used, &matched, gi,
                  arena, &out);
        matched.pop_back();
        vertex_used[u] = false;
        vertex_used[e.to] = false;
        used[e.eid] = false;
      }
    }
  }
  PM_METRIC_COUNTER("miner.embeddings_projected")->Add(out.size());
  return out;
}

namespace {

/// Read-only state of one growth run, shared by every frame and task. The
/// output sinks travel as parameters so that sibling subtrees can grow as
/// pool tasks into task-local sinks.
struct Grower {
  const GraphDatabase& db;
  const MinerOptions& options;
  ChildRank rank;
  const MinimalityCheck& is_minimal;

  /// Emits `code` (frequent, minimal), then grows its children. `node` is
  /// the code's node in `frontier`, when there is one.
  void Visit(DfsCode* code, const Projected& projected, int depth,
             PatternSet* out, Frontier* frontier,
             Frontier::NodeId node) const {
    PatternInfo info;
    info.code = *code;
    info.support = SupportOf(projected);
    info.tids = TidSetOf(projected);
    if (frontier != nullptr) frontier->Erase(node);
    out->Upsert(std::move(info));

    if (static_cast<int>(code->size()) >= options.max_edges) return;
    ExtensionMap children =
        CollectExtensions(db, *code, projected, /*enable_order_pruning=*/true);
    Expand(code, &children, static_cast<int64_t>(projected.size()), depth,
           out, frontier, node);
  }

  /// Visits one frequent child below node `parent`, or parks it on the
  /// frontier when its code is not minimal: the minimal twin carries the
  /// pattern, and the TIDs must survive for the incremental lookups.
  void VisitChild(DfsCode* code, const Projected& projected, int child_rank,
                  int depth, bool check_minimal, PatternSet* out,
                  Frontier* frontier, Frontier::NodeId parent) const {
    const Frontier::NodeId node = frontier != nullptr
                                      ? frontier->Node(parent, code->back())
                                      : Frontier::kNone;
    if (check_minimal && !(is_minimal ? is_minimal(*code, child_rank)
                                      : IsMinimalDfsCode(*code))) {
      if (frontier != nullptr) frontier->Put(node, TidSetOf(projected));
      return;
    }
    Visit(code, projected, depth, out, frontier, node);
  }

  /// Grows the children of `code` (depth `depth`; the empty code is -1),
  /// whose node in `frontier` is `node`. A group's embeddings are freed as
  /// soon as nothing can extend them: an infrequent group's once its TIDs
  /// are on the frontier, a serially visited child's once its subtree
  /// returns.
  void Expand(DfsCode* code, ExtensionMap* children, int64_t parent_embeddings,
              int depth, PatternSet* out, Frontier* frontier,
              Frontier::NodeId node) const {
    struct Child {
      const DfsEdge* tuple;
      Projected* projected;
      int rank;
    };
    std::vector<Child> frequent;  // Most nodes have none: no allocation.
    for (auto& [tuple, projected] : *children) {
      if (SupportOf(projected) < options.min_support) {
        if (frontier != nullptr) {
          frontier->Put(frontier->Node(node, tuple), TidSetOf(projected));
        }
        Projected().swap(projected);
      } else if (rank == nullptr) {
        frequent.push_back(Child{&tuple, &projected, 0});
      } else {
        code->Append(tuple);
        frequent.push_back(Child{&tuple, &projected, rank(*code)});
        code->PopBack();
      }
    }
    if (rank != nullptr) {
      std::stable_sort(
          frequent.begin(), frequent.end(),
          [](const Child& a, const Child& b) { return a.rank < b.rank; });
    }
    const bool check_minimal = !code->empty();  // Roots are minimal.

    if (options.pool == nullptr || depth >= 1 ||
        parent_embeddings < options.parallel_spawn_min_embeddings) {
      for (const Child& child : frequent) {
        code->Append(*child.tuple);
        VisitChild(code, *child.projected, child.rank, depth + 1,
                   check_minimal, out, frontier, node);
        code->PopBack();
        Projected().swap(*child.projected);
      }
      return;
    }

    // One task per frequent child, each with its own code copy and sinks;
    // the minimality test is part of the task's work. A task's frontier is
    // a fork whose root stands for `node`.
    struct Job {
      DfsCode code;
      const Projected* projected;
      int rank;
      PatternSet patterns;
      Frontier frontier;
    };
    std::vector<Job> jobs(frequent.size());
    for (size_t i = 0; i < frequent.size(); ++i) {
      jobs[i].code = *code;
      jobs[i].code.Append(*frequent[i].tuple);
      jobs[i].projected = frequent[i].projected;
      jobs[i].rank = frequent[i].rank;
      if (frontier != nullptr) jobs[i].frontier = frontier->Fork();
    }
    const bool want_frontier = frontier != nullptr;
    {
      TaskGroup group(options.pool);
      for (Job& job : jobs) {
        group.Spawn([this, &job, depth, check_minimal, want_frontier]() {
          VisitChild(&job.code, *job.projected, job.rank, depth + 1,
                     check_minimal, &job.patterns,
                     want_frontier ? &job.frontier : nullptr, Frontier::kRoot);
        });
      }
    }  // Waits; `children` and the jobs outlive every task.

    // Splicing the task sinks in visit order reproduces the serial sinks:
    // the same patterns in the same order, and the same nodes under the
    // same ids. Each fork is freed as it is spliced.
    for (Job& job : jobs) {
      out->AppendFrom(std::move(job.patterns));
      if (frontier != nullptr) frontier->Splice(std::move(job.frontier), node);
    }
  }
};

}  // namespace

PatternSet GrowFromRoots(const GraphDatabase& db, const MinerOptions& options,
                         ChildRank rank, const MinimalityCheck& is_minimal) {
  const Grower grower{db, options, rank, is_minimal};
  Frontier* frontier = options.capture_frontier;
  if (frontier != nullptr) frontier->BeginCapture();
  std::vector<int> all(db.size());
  std::iota(all.begin(), all.end(), 0);
  ExtensionMap roots = CollectRootExtensions(db, all);
  PatternSet out;
  DfsCode code;
  grower.Expand(&code, &roots, INT64_MAX, /*depth=*/-1, &out, frontier,
                Frontier::kRoot);
  if (frontier != nullptr) frontier->EndCapture();
  return out;
}

void GrowSubtree(const GraphDatabase& db, const MinerOptions& options,
                 DfsCode* code, const Projected& projected,
                 Frontier::NodeId node, PatternSet* out) {
  const MinimalityCheck generic;
  const Grower grower{db, options, nullptr, generic};
  grower.Visit(code, projected, /*depth=*/0, out, options.capture_frontier,
               node);
}

int SupportOf(const Projected& projected) {
  int support = 0;
  int last = -1;
  for (const Embedding& e : projected) {
    if (e.graph_index != last) {
      ++support;
      last = e.graph_index;
    }
  }
  return support;
}

TidSet TidSetOf(const Projected& projected) {
  TidSet tids;
  if (projected.empty()) return tids;
  // Ascending graph order: the last embedding holds the largest TID.
  const int max_tid = projected.back().graph_index;
  int last = -1;
  for (const Embedding& e : projected) {
    if (e.graph_index != last) {
      PM_DCHECK(e.graph_index > last);
      tids.Append(e.graph_index, max_tid);
      last = e.graph_index;
    }
  }
  return tids;
}

}  // namespace engine
}  // namespace partminer
