#ifndef PARTMINER_MINER_GASTON_H_
#define PARTMINER_MINER_GASTON_H_

#include <cstdint>

#include "miner/miner.h"

namespace partminer {

/// Counters describing one Mine() run of the Gaston-style miner. Gaston's
/// founding observation — "most frequent substructures in practical graph
/// databases are actually free trees" (Section 4.2) — is directly visible in
/// the phase counts.
struct GastonStats {
  int64_t frequent_paths = 0;
  int64_t frequent_trees = 0;    // Non-path free trees.
  int64_t frequent_cyclic = 0;
  int64_t path_fast_checks = 0;     // Canonicality via the path fast-path.
  int64_t generic_min_checks = 0;   // Canonicality via generic is-min.

  int64_t TotalFrequent() const {
    return frequent_paths + frequent_trees + frequent_cyclic;
  }
};

/// Gaston-style phased miner (Nijssen & Kok, KDD 2004) — the memory-based
/// unit miner PartMiner invokes (Figure 7 of the paper). Patterns are grown
/// phase by phase — paths, then free trees, then cyclic graphs — and path
/// canonicality is decided by a closed-form enumeration over the path's
/// (at most 2n) DFS roots instead of the generic embedding-based search.
///
/// Faithfulness note: real Gaston uses bespoke canonical forms for paths and
/// free trees; this reimplementation keeps gSpan's minimum-DFS-code as the
/// global canonical label (so pattern sets are directly comparable across
/// miners) and reproduces Gaston's phase structure and its cheap path
/// handling. Tests assert it emits exactly the same pattern set as gSpan.
class GastonMiner {
 public:
  GastonMiner() = default;

  PatternSet Mine(const GraphDatabase& db, const MinerOptions& options);

  /// Statistics of the most recent Mine() call.
  const GastonStats& stats() const { return stats_; }

 private:
  GastonStats stats_;
};

/// Exact minimality test specialized for straight path codes: compares the
/// code against every DFS enumeration of the path (each root vertex, each
/// branch order), all constructed in closed form. Exposed for tests, which
/// validate it against the generic IsMinimalDfsCode.
bool IsMinimalPathCode(const DfsCode& code);

}  // namespace partminer

#endif  // PARTMINER_MINER_GASTON_H_
