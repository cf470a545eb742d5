#ifndef PARTMINER_MINER_MINER_H_
#define PARTMINER_MINER_MINER_H_

#include <climits>

#include "graph/graph.h"
#include "miner/pattern_set.h"

namespace partminer {

class ThreadPool;

/// Options shared by the frequent-subgraph miners (GSpanMiner, GastonMiner,
/// BruteForceMiner). Each miner's Mine(db, options) returns every frequent
/// connected subgraph with at least one edge, by minimum DFS code with
/// support and TID list.
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
  /// each frequent root's subtree runs as one pool task with task-local
  /// outputs, merged in visit order so the result is bit-identical to the
  /// serial traversal. Null keeps the serial path.
  ThreadPool* pool = nullptr;
};

}  // namespace partminer

#endif  // PARTMINER_MINER_MINER_H_
