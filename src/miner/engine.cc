#include "miner/engine.h"

#include <sys/mman.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <tuple>

#include "common/fnv.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timing.h"
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

namespace {

/// A root tuple's labels and its count in one range of the root scan.
/// After the merge, `group` is the tuple's group position and `next` the
/// range's next write position there. Trivial, so an array of them is left
/// unwritten until used.
struct RootCount {
  Label from_label;
  Label edge_label;
  Label to_label;
  int32_t count;
  int32_t group;
  int32_t next;

  /// The labels in tuple order.
  auto Key() const { return std::tie(from_label, edge_label, to_label); }
  bool operator<(const RootCount& o) const { return Key() < o.Key(); }
  DfsEdge Tuple() const {
    return DfsEdge{0, 1, from_label, edge_label, to_label};
  }
};

/// Arrays of a root scan range up to this size come from the heap, so a
/// small scan (a delta round lists a few graphs) pays no mapping calls.
constexpr size_t kHeapRangeBytes = 64 << 10;

/// One range of listed graphs of the root scan, its tuples counted in an
/// open-addressing table. The caller allocates its arrays, sized from the
/// range's half-edges (each adds at most one tuple), in one block; a large
/// block is an anonymous page mapping of its own: the table grows in place
/// as tuples appear, the untouched rest costs no memory, and unmapping it
/// leaves no state in any malloc arena. Freeing a block that large to
/// malloc would raise its mmap threshold, and later large allocations would
/// stay in the heap: perfbench `update_rounds` peak RSS grows by about 10%
/// that way.
struct RootRange {
  RootRange() = default;
  RootRange(const RootRange&) = delete;
  RootRange& operator=(const RootRange&) = delete;
  ~RootRange() {
    if (bytes > kHeapRangeBytes) munmap(block, bytes);
    else delete[] static_cast<char*>(block);
  }
  /// Allocates the arrays for `half_edges` half-edges.
  void Allocate(size_t half_edges) {
    const size_t bound = std::max<size_t>(8, half_edges);
    const size_t slot_bytes = NextPow2(2 * bound) * sizeof(int32_t);
    const size_t tuple_bytes = bound * sizeof(RootCount);
    bytes = slot_bytes + tuple_bytes + 2 * bound * sizeof(int32_t);
    if (bytes <= kHeapRangeBytes) {
      block = new char[bytes];
    } else {
      block = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      PM_CHECK(block != MAP_FAILED) << "cannot map a root scan table";
    }
    char* at = static_cast<char*>(block);
    slots = reinterpret_cast<int32_t*>(at);
    tuples = reinterpret_cast<RootCount*>(at + slot_bytes);
    sorted_at = reinterpret_cast<int32_t*>(at + slot_bytes + tuple_bytes);
    tuple_of = sorted_at + bound;
  }

  /// [begin, end) of the listed graphs.
  size_t begin = 0;
  size_t end = 0;
  void* block = nullptr;
  size_t bytes = 0;
  int32_t* slots = nullptr;  // -1 empty, else a position in tuples.
  size_t slot_count = 0;     // A power of two.
  RootCount* tuples = nullptr;
  int32_t size = 0;
  /// Per tuple, by first appearance, its position in the sorted tuples.
  int32_t* sorted_at = nullptr;
  /// Per canonical half-edge, in scan order, its tuple's first appearance.
  int32_t* tuple_of = nullptr;

  /// Slot of `t`'s tuple, or the empty slot where it goes.
  size_t Probe(const RootCount& t) const {
    const size_t mask = slot_count - 1;
    size_t i = HashTuple(t.Tuple()) & mask;
    while (slots[i] != -1 && tuples[slots[i]].Key() != t.Key()) {
      i = (i + 1) & mask;
    }
    return i;
  }
  void Rehash(size_t count) {
    slot_count = count;
    std::fill_n(slots, slot_count, -1);
    for (int32_t t = 0; t < size; ++t) slots[Probe(tuples[t])] = t;
  }
};

/// Calls `fn(graph_index, half_edge, key)` for every half-edge of the
/// range in canonical orientation, in database order; `key` carries the
/// half-edge's root tuple.
template <typename Fn>
void ForEachRootEdge(const GraphDatabase& db, const std::vector<int>& graphs,
                     const RootRange& range, Fn&& fn) {
  RootCount key{};
  for (size_t k = range.begin; k < range.end; ++k) {
    const Graph& g = db.graph(graphs[k]);
    for (VertexId u = 0; u < g.VertexCount(); ++u) {
      key.from_label = g.vertex_label(u);
      for (const EdgeEntry& e : g.adjacency(u)) {
        key.to_label = g.vertex_label(e.to);
        if (key.from_label > key.to_label) continue;  // Mirror is canonical.
        key.edge_label = e.label;
        fn(graphs[k], e, key);
      }
    }
  }
}

/// Counts the range's tuples, noting each half-edge's, then sorts them:
/// the range's sorted run.
void CountRoots(const GraphDatabase& db, const std::vector<int>& graphs,
                RootRange* range) {
  range->Rehash(16);
  int32_t* tuple_of = range->tuple_of;
  ForEachRootEdge(
      db, graphs, *range,
      [range, &tuple_of](int, const EdgeEntry&, const RootCount& key) {
        size_t slot = range->Probe(key);
        if (range->slots[slot] == -1) {
          if ((range->size + 1) * size_t{2} > range->slot_count) {
            range->Rehash(range->slot_count * 2);
            slot = range->Probe(key);
          }
          range->slots[slot] = range->size;
          range->tuples[range->size++] = key;
        }
        ++range->tuples[range->slots[slot]].count;
        *tuple_of++ = range->slots[slot];
      });
  for (int32_t t = 0; t < range->size; ++t) range->tuples[t].group = t;
  std::sort(range->tuples, range->tuples + range->size);
  for (int32_t t = 0; t < range->size; ++t) {
    range->sorted_at[range->tuples[t].group] = t;
  }
}

/// Writes the range's embeddings into its share of every group.
void FillRoots(const GraphDatabase& db, const std::vector<int>& graphs,
               const RootRange& range,
               std::vector<ExtensionMap::Entry>* groups) {
  const int32_t* tuple_of = range.tuple_of;
  ForEachRootEdge(db, graphs, range,
                  [&range, &tuple_of, groups](int graph, const EdgeEntry& e,
                                              const RootCount&) {
                    RootCount& t = range.tuples[range.sorted_at[*tuple_of++]];
                    (*groups)[t.group].second[t.next++] =
                        Embedding{graph, &e, nullptr};
                  });
}

}  // namespace

ExtensionMap CollectRootExtensions(const GraphDatabase& db,
                                   const std::vector<int>& graph_indices,
                                   ThreadPool* pool) {
  if (graph_indices.empty()) return ExtensionMap();
  // One range per worker, cut at equal shares of the half-edges.
  std::vector<size_t> half_edges(graph_indices.size() + 1, 0);
  for (size_t k = 0; k < graph_indices.size(); ++k) {
    half_edges[k + 1] =
        half_edges[k] + 2 * static_cast<size_t>(
                                db.graph(graph_indices[k]).EdgeCount());
  }
  const size_t width = pool != nullptr ? pool->width() : 1;
  std::vector<RootRange> ranges(std::min(width, graph_indices.size()));
  for (size_t r = 0, k = 0; r < ranges.size(); ++r) {
    RootRange& range = ranges[r];
    const size_t share = half_edges.back() * (r + 1) / ranges.size();
    range.begin = k;
    while (k < graph_indices.size() &&
           (half_edges[k] < share || r + 1 == ranges.size())) {
      ++k;
    }
    range.end = k;
    range.Allocate(half_edges[range.end] - half_edges[range.begin]);
  }
  {
    TaskGroup group(pool);
    for (RootRange& range : ranges) {
      group.Spawn([&db, &graph_indices, &range] {
        CountRoots(db, graph_indices, &range);
      });
    }
  }

  // Merge the sorted runs: a tuple's group holds the ranges' shares in
  // range order, which is database order.
  std::vector<ExtensionMap::Entry> groups;
  std::vector<int32_t> head(ranges.size(), 0);
  for (const RootRange& range : ranges) {
    groups.reserve(std::max<size_t>(groups.capacity(), range.size));
  }
  int64_t embeddings = 0;
  for (;;) {
    const RootCount* least = nullptr;
    for (size_t r = 0; r < ranges.size(); ++r) {
      const RootRange& range = ranges[r];
      if (head[r] < range.size &&
          (least == nullptr || range.tuples[head[r]] < *least)) {
        least = &range.tuples[head[r]];
      }
    }
    if (least == nullptr) break;
    const RootCount key = *least;
    int32_t size = 0;
    for (size_t r = 0; r < ranges.size(); ++r) {
      RootRange& range = ranges[r];
      if (head[r] == range.size) continue;
      RootCount& t = range.tuples[head[r]];
      if (t.Key() != key.Key()) continue;
      t.group = static_cast<int32_t>(groups.size());
      t.next = size;
      size += t.count;
      ++head[r];
    }
    groups.emplace_back(key.Tuple(), Projected(size));
    embeddings += size;
  }
  {
    TaskGroup group(pool);
    for (RootRange& range : ranges) {
      group.Spawn([&db, &graph_indices, &range, &groups] {
        FillRoots(db, graph_indices, range, &groups);
      });
    }
  }
  PM_METRIC_COUNTER("miner.root_extension_groups")->Add(groups.size());
  PM_METRIC_COUNTER("miner.root_extension_embeddings")->Add(embeddings);
  return ExtensionMap(std::move(groups));
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

/// Laps the phases of one GrowFromRoots call.
class PhaseClock {
 public:
  explicit PhaseClock(GrowPhases* phases) : phases_(phases) {}
  /// Adds the time since the previous lap to `phase`.
  void Lap(double GrowPhases::*phase) {
    phases_->*phase += watch_.ElapsedMillis();
    watch_.Restart();
  }

 private:
  GrowPhases* phases_;
  Stopwatch watch_;
};

/// Laps `clock`, when the phases are timed.
void Lap(PhaseClock* clock, double GrowPhases::*phase) {
  if (clock != nullptr) clock->Lap(phase);
}

/// Infrequent children per put task of a pooled node.
constexpr size_t kPutChunk = 512;

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
           out, frontier, node, /*clock=*/nullptr);
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
  /// returns. `clock`, set only for the empty code, laps the phases.
  void Expand(DfsCode* code, ExtensionMap* children, int64_t parent_embeddings,
              int depth, PatternSet* out, Frontier* frontier,
              Frontier::NodeId node, PhaseClock* clock) const {
    const bool pooled =
        options.pool != nullptr && depth < 1 &&
        parent_embeddings >= options.parallel_spawn_min_embeddings;
    struct Child {
      const DfsEdge* tuple;
      Projected* projected;
      int rank;
    };
    std::vector<Child> frequent;  // Most nodes have none: no allocation.
    std::vector<ExtensionMap::Entry*> infrequent;  // Pooled runs only.
    for (ExtensionMap::Entry& entry : *children) {
      auto& [tuple, projected] = entry;
      if (SupportOf(projected) < options.min_support) {
        if (frontier != nullptr && pooled) {
          infrequent.push_back(&entry);
          continue;
        }
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
    Lap(clock, &GrowPhases::root_puts_ms);

    if (!pooled) {
      for (const Child& child : frequent) {
        code->Append(*child.tuple);
        VisitChild(code, *child.projected, child.rank, depth + 1,
                   check_minimal, out, frontier, node);
        code->PopBack();
        Projected().swap(*child.projected);
      }
      Lap(clock, &GrowPhases::tasks_ms);
      return;
    }

    // Tasks write task-local sinks, each fork's root standing for `node`:
    // a fork per chunk of infrequent children, which puts them in order,
    // and a pattern set and a fork per frequent child, which grows it with
    // its own code copy; the minimality test is part of its work. The
    // serial run appends a node's infrequent children before it visits the
    // frequent ones, so the forks in this order hold the serial nodes.
    const size_t chunks = (infrequent.size() + kPutChunk - 1) / kPutChunk;
    std::vector<std::optional<Frontier>> forks(
        frontier != nullptr ? chunks + frequent.size() : 0);
    std::vector<PatternSet> patterns(frequent.size());
    {
      TaskGroup group(options.pool);
      for (size_t c = 0; c < chunks; ++c) {
        group.Spawn([&infrequent, &forks, frontier, c] {
          Frontier& fork = forks[c].emplace(frontier->Fork());
          const size_t end =
              std::min(infrequent.size(), (c + 1) * kPutChunk);
          for (size_t i = c * kPutChunk; i < end; ++i) {
            auto& [tuple, projected] = *infrequent[i];
            fork.Put(fork.Node(Frontier::kRoot, tuple), TidSetOf(projected));
            Projected().swap(projected);
          }
        });
      }
      for (size_t i = 0; i < frequent.size(); ++i) {
        group.Spawn([this, code, &frequent, &forks, &patterns, frontier,
                     chunks, i, depth, check_minimal] {
          DfsCode child = *code;
          child.Append(*frequent[i].tuple);
          Frontier* fork = frontier != nullptr
                               ? &forks[chunks + i].emplace(frontier->Fork())
                               : nullptr;
          VisitChild(&child, *frequent[i].projected, frequent[i].rank,
                     depth + 1, check_minimal, &patterns[i], fork,
                     Frontier::kRoot);
        });
      }
    }  // Waits; `children` and the sinks outlive every task.
    Lap(clock, &GrowPhases::tasks_ms);

    // Each fork goes to the ids the serial run gives its nodes, by a task of
    // its own, while the patterns are appended in visit order.
    std::vector<Frontier::NodeId> first(forks.size());
    Frontier::NodeId grown = 0;
    for (size_t i = 0; i < forks.size(); ++i) {
      first[i] = grown;
      grown += static_cast<Frontier::NodeId>(forks[i]->node_count());
    }
    const Frontier::NodeId base =
        frontier != nullptr ? frontier->Grow(grown) : 0;
    Lap(clock, &GrowPhases::index_ms);
    {
      TaskGroup group(options.pool);
      for (size_t i = 0; i < forks.size(); ++i) {
        group.Spawn([&forks, &first, frontier, node, base, i] {
          frontier->PlaceFork(std::move(*forks[i]), node, base + first[i]);
        });
      }
      for (PatternSet& p : patterns) out->AppendFrom(std::move(p));
    }
    Lap(clock, &GrowPhases::splice_ms);
  }
};

}  // namespace

PatternSet GrowFromRoots(const GraphDatabase& db, const MinerOptions& options,
                         ChildRank rank, const MinimalityCheck& is_minimal,
                         GrowPhases* phases) {
  std::optional<PhaseClock> clock;
  if (phases != nullptr) clock.emplace(phases);
  PhaseClock* timed = clock ? &*clock : nullptr;
  const Grower grower{db, options, rank, is_minimal};
  // A serial capture appends unindexed and indexes once at the end; a
  // pooled one places its forks and their index entries at once.
  Frontier* frontier = options.capture_frontier;
  if (frontier != nullptr) {
    PM_CHECK_EQ(frontier->node_count(), 0u)
        << "a capture starts from an empty frontier";
    if (options.pool == nullptr) frontier->BeginCapture();
  }
  std::vector<int> all(db.size());
  std::iota(all.begin(), all.end(), 0);
  PatternSet out;
  {
    ExtensionMap roots = CollectRootExtensions(db, all, options.pool);
    Lap(timed, &GrowPhases::root_scan_ms);
    DfsCode code;
    grower.Expand(&code, &roots, INT64_MAX, /*depth=*/-1, &out, frontier,
                  Frontier::kRoot, timed);
  }
  if (frontier != nullptr && options.pool == nullptr) frontier->EndCapture();
  Lap(timed, &GrowPhases::index_ms);
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
