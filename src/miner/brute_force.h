#ifndef PARTMINER_MINER_BRUTE_FORCE_H_
#define PARTMINER_MINER_BRUTE_FORCE_H_

#include "miner/miner.h"

namespace partminer {

/// Reference miner: enumerates every connected edge subset of every database
/// graph (exponential), canonicalizes each with the minimum DFS code, and
/// counts support exactly. Exists to provide ground truth for the property
/// tests that validate gSpan, Gaston, PartMiner and IncPartMiner; only
/// usable on small inputs.
class BruteForceMiner {
 public:
  BruteForceMiner() = default;

  PatternSet Mine(const GraphDatabase& db, const MinerOptions& options);
};

}  // namespace partminer

#endif  // PARTMINER_MINER_BRUTE_FORCE_H_
