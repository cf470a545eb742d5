#ifndef PARTMINER_MINER_MINER_H_
#define PARTMINER_MINER_MINER_H_

#include <climits>
#include <string>

#include "graph/graph.h"
#include "miner/pattern_set.h"

namespace partminer {

class ThreadPool;

/// Options shared by all frequent-subgraph miners.
struct MinerOptions {
  /// Absolute minimum support (number of database graphs). PartMiner
  /// translates the paper's relative thresholds (e.g. "4%") into counts.
  int min_support = 1;

  /// Upper bound on pattern size in edges. INT_MAX mines everything.
  int max_edges = INT_MAX;

  /// When non-null, receives the mining frontier: every enumerated extension
  /// group that did not become a frequent pattern, with exact TID lists (see
  /// Frontier), written at the frontier's current epoch. Consumed by the
  /// incremental merge.
  Frontier* capture_frontier = nullptr;

  /// When non-null, the gSpan/Gaston search tree itself is parallelized:
  /// sibling extension subtrees (root groups, and first-level children with
  /// at least `parallel_spawn_min_embeddings` embeddings) run as pool tasks
  /// with task-local outputs, merged in tuple order so the result is
  /// bit-identical to the serial traversal. Null keeps the serial path.
  ThreadPool* pool = nullptr;

  /// Minimum embedding count for a first-level subtree to be worth a task
  /// of its own; smaller subtrees stay inline with their parent.
  int parallel_spawn_min_embeddings = 32;
};

/// Interface of the memory-based miners PartMiner plugs in (Section 4.2:
/// "we can now use any existing memory-based algorithm").
class FrequentSubgraphMiner {
 public:
  virtual ~FrequentSubgraphMiner() = default;

  /// Mines all frequent connected subgraphs with at least one edge.
  /// Patterns are reported by minimum DFS code with support and TID list.
  virtual PatternSet Mine(const GraphDatabase& db,
                          const MinerOptions& options) = 0;

  /// Human-readable algorithm name for reports.
  virtual std::string name() const = 0;
};

}  // namespace partminer

#endif  // PARTMINER_MINER_MINER_H_
