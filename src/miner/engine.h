#ifndef PARTMINER_MINER_ENGINE_H_
#define PARTMINER_MINER_ENGINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "graph/dfs_code.h"
#include "graph/graph.h"
#include "graph/tid_set.h"
#include "miner/miner.h"

namespace partminer {
namespace engine {

/// One embedding of the current DFS code into a database graph, represented
/// as a linked chain: `edge` realizes the last code entry, `prev` the rest.
/// Chains point into the parent recursion frame's embedding vector, which
/// outlives all children (the classic gSpan projected-database layout).
struct Embedding {
  int graph_index = -1;
  const EdgeEntry* edge = nullptr;
  const Embedding* prev = nullptr;
};

/// The embeddings of one pattern across the database.
using Projected = std::vector<Embedding>;

/// Flattened view of one embedding: the host edges realizing each code
/// entry, plus host-vertex/edge occupancy used to keep extensions injective.
///
/// Occupancy is tracked with epoch stamps instead of boolean arrays: Build
/// bumps the epoch and stamps only the O(code length) touched slots, so the
/// per-embedding cost no longer scales with the host graph's size (the old
/// `assign` cleared all V+E slots per embedding). The stamp arrays grow
/// monotonically to the largest graph seen by this instance and are meant
/// to be reused across embeddings and graphs — CollectExtensions keeps one
/// History per thread.
class History {
 public:
  void Build(const Graph& g, const Embedding& e);

  const EdgeEntry* edge(int code_position) const {
    return edges_[code_position];
  }
  bool HasEdge(int eid) const { return edge_stamp_[eid] == epoch_; }
  bool HasVertex(VertexId v) const { return vertex_stamp_[v] == epoch_; }

 private:
  std::vector<const EdgeEntry*> edges_;
  std::vector<uint64_t> edge_stamp_;
  std::vector<uint64_t> vertex_stamp_;
  uint64_t epoch_ = 0;  // Stamp 0 is reserved for "never touched".
};

/// Positions (indices into the code) of the rightmost-path *forward* edges,
/// deepest first: rmpath[0] is the edge discovering the rightmost vertex,
/// rmpath.back() the root edge.
std::vector<int> BuildRightmostPathPositions(const DfsCode& code);

/// Ordering DFS-code tuples with gSpan's neighborhood order so that
/// extension maps iterate smallest-first.
struct DfsEdgeLess {
  bool operator()(const DfsEdge& a, const DfsEdge& b) const {
    return CompareDfsEdge(a, b) < 0;
  }
};

/// Extension tuple -> embeddings of (code + tuple).
///
/// Flat replacement for the former std::map: groups are appended to a
/// contiguous vector and located through a small open-addressing index, so
/// the collection hot loop pays one hash probe per embedding instead of a
/// red-black tree walk plus node allocation. Iteration sorts the entries by
/// gSpan tuple order on first access (begin), which preserves the
/// deterministic smallest-first traversal the miners rely on.
class ExtensionMap {
 public:
  using Entry = std::pair<DfsEdge, Projected>;
  using iterator = std::vector<Entry>::iterator;
  using const_iterator = std::vector<Entry>::const_iterator;

  ExtensionMap() = default;
  /// The map of `entries`, whose tuples are distinct and ascending.
  explicit ExtensionMap(std::vector<Entry> entries)
      : entries_(std::move(entries)), sorted_(true) {}

  /// Embedding list of `tuple`, created empty on first access.
  Projected& operator[](const DfsEdge& tuple);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Iteration is in ascending CompareDfsEdge order.
  const_iterator begin() const {
    EnsureSorted();
    return entries_.begin();
  }
  const_iterator end() const { return entries_.end(); }
  /// The same order, mutable: a caller may release a group's embeddings,
  /// never change its tuple.
  iterator begin() {
    EnsureSorted();
    return entries_.begin();
  }
  iterator end() { return entries_.end(); }

 private:
  void EnsureSorted() const;
  void Rehash(size_t buckets);
  /// Slot of `tuple` in slots_, or the empty slot where it would insert.
  size_t Probe(const DfsEdge& tuple) const;

  mutable std::vector<Entry> entries_;
  /// Open addressing: slot -> entry index, -1 empty. Rebuilt lazily after a
  /// sort invalidates it (sorting permutes entry indices).
  std::vector<int32_t> slots_;
  mutable bool sorted_ = false;
  mutable bool index_valid_ = false;
};

/// Groups every single-edge pattern of the graphs of `db` whose indices are
/// listed (ascending) in `graph_indices` with its embeddings there, in
/// database order. Tuples with from_label > to_label are omitted (their
/// mirror is the canonical representative). The growth loop lists every
/// graph; the delta sweep lists a round's updated graphs, and so gets
/// exactly the full scan's groups restricted to them.
///
/// The scan splits the listed graphs into one range per worker of `pool`
/// (one range without a pool; the same code runs inline). Each range
/// counts its tuples, the caller merges the ranges' sorted counts into the
/// groups, sized exactly, and each range then fills its share of every
/// group. The result does not depend on the pool.
ExtensionMap CollectRootExtensions(const GraphDatabase& db,
                                   const std::vector<int>& graph_indices,
                                   ThreadPool* pool = nullptr);

/// Collects all rightmost extensions of `code` over its embeddings.
/// When `enable_order_pruning` is set, extensions that provably produce
/// non-minimal codes are dropped early (the gSpan label-order prunings);
/// every surviving extension must still pass IsMinimalDfsCode. The growth
/// loop always prunes; the unpruned enumeration is the tests' reference.
/// Uses a thread-local History scratch, safe for concurrent callers.
ExtensionMap CollectExtensions(const GraphDatabase& db, const DfsCode& code,
                               const Projected& projected,
                               bool enable_order_pruning);

/// Enumerates every embedding of `code` (a valid DFS code) into the graphs
/// of `db` whose indices are listed (ascending) in `graph_indices`. The
/// embedding chains are allocated in `arena`, which must outlive any use of
/// the returned Projected and must not be resized by the caller.
///
/// This re-derives what gSpan's recursion carries implicitly, and is what
/// lets the incremental merge path project a cached pattern onto just the
/// updated graphs.
Projected ProjectCode(const DfsCode& code, const GraphDatabase& db,
                      const std::vector<int>& graph_indices,
                      std::deque<Embedding>* arena);

/// Wall time, in milliseconds, of the phases of one GrowFromRoots call on
/// the calling thread; together they cover the call.
struct GrowPhases {
  /// CollectRootExtensions over every graph.
  double root_scan_ms = 0;
  /// Classifying the root groups. Serially this writes the infrequent
  /// ones to the frontier; pooled it hands them to tasks.
  double root_puts_ms = 0;
  /// Growing the frequent roots' subtrees: serially the whole visit;
  /// pooled the tasks, the infrequent roots' chunks included.
  double tasks_ms = 0;
  /// Placing the forks and their index entries, and appending the
  /// patterns: pooled only.
  double splice_ms = 0;
  /// Serially, building the index; pooled, growing the arena and sizing
  /// the index the placement fills.
  double index_ms = 0;
};

/// Child visit order of the growth loop: the frequent children of one
/// node are visited in stable ascending rank of their full code. Null keeps
/// gSpan's tuple order.
using ChildRank = int (*)(const DfsCode& child);

/// Minimality test of a frequent child code, given its rank (0 without a
/// ChildRank). Empty means the generic IsMinimalDfsCode. It may run on
/// several pool workers at once.
using MinimalityCheck = std::function<bool(const DfsCode& child, int rank)>;

/// Depth-first pattern growth from the empty code: the one search loop
/// behind gSpan, Gaston and the incremental merge. Every frequent pattern
/// with a minimal code is appended to the result with its support and
/// TIDs, in visit order. The roots are the single-edge groups of `db`; they
/// skip the minimality test, since a single edge in canonical orientation
/// is minimal. A pattern of `options.max_edges` edges is not extended.
///
/// The frontier contract (see Frontier), enforced here and nowhere
/// else: with `options.capture_frontier` set, every enumerated group that
/// is infrequent, or frequent under a non-minimal code, is written as an
/// entry on its node (parent's node, tuple), every emitted pattern is a
/// path node with no entry, and a node is appended after its parent.
///
/// With `options.pool`, the root scan runs on the pool, and the children
/// of the empty code, and of a root with at least
/// `options.parallel_spawn_min_embeddings` embeddings, are grown as pool
/// tasks into task-local sinks: a pattern set and a Frontier::Fork per
/// frequent child, and a fork per chunk of infrequent children. Each fork
/// is then placed, by a task of its own, at the node ids the serial run
/// gives its nodes (a prefix sum over the fork sizes), and indexed there,
/// so the result and the frontier equal the serial run's, node ids
/// included. Without a pool the recursion writes straight into the
/// caller's sinks, and the index is built once the growth returns. The
/// capture frontier must hold only its root (a fresh capture).
///
/// `phases`, when set, receives the wall time of each phase (GrowPhases).
PatternSet GrowFromRoots(const GraphDatabase& db, const MinerOptions& options,
                         ChildRank rank = nullptr,
                         const MinimalityCheck& is_minimal = {},
                         GrowPhases* phases = nullptr);

/// The same growth started at one frequent minimal `code` whose embeddings
/// into `db` are `projected` and whose node in `options.capture_frontier`
/// (if set) is `node`: emits `code` and its whole frequent subtree into
/// `out`, under the same frontier contract and visit order (tuple order,
/// generic minimality test). Nodes of the subtree already in the frontier
/// are rewritten in place.
void GrowSubtree(const GraphDatabase& db, const MinerOptions& options,
                 DfsCode* code, const Projected& projected,
                 Frontier::NodeId node, PatternSet* out);

/// Support of an embedding list: the number of distinct database graphs.
/// Embeddings are grouped by graph in database order by construction.
int SupportOf(const Projected& projected);

/// Distinct database indices of an embedding list, as a TidSet — the form
/// PatternInfo and the frontier store. A set past TidSet::kInline TIDs
/// allocates its bitset once, sized by the last embedding.
TidSet TidSetOf(const Projected& projected);

}  // namespace engine
}  // namespace partminer

#endif  // PARTMINER_MINER_ENGINE_H_
