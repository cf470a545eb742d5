#include "miner/gspan.h"

#include "miner/engine.h"

namespace partminer {

PatternSet GSpanMiner::Mine(const GraphDatabase& db,
                            const MinerOptions& options) {
  // gSpan is the growth loop at its defaults: tuple order, generic
  // minimality test.
  return engine::GrowFromRoots(db, options);
}

}  // namespace partminer
