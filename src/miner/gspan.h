#ifndef PARTMINER_MINER_GSPAN_H_
#define PARTMINER_MINER_GSPAN_H_

#include "miner/miner.h"

namespace partminer {

/// gSpan (Yan & Han, ICDM 2002): depth-first frequent-subgraph mining by
/// rightmost extension of minimum DFS codes over projected embedding lists.
/// Serves two roles in this repository: the ground-truth full-database miner
/// that PartMiner's output is validated against, and the engine underlying
/// the Gaston-style unit miner.
class GSpanMiner {
 public:
  GSpanMiner() = default;

  PatternSet Mine(const GraphDatabase& db, const MinerOptions& options);
};

}  // namespace partminer

#endif  // PARTMINER_MINER_GSPAN_H_
