#ifndef PARTMINER_CORE_INC_PART_MINER_H_
#define PARTMINER_CORE_INC_PART_MINER_H_

#include "common/setword.h"
#include "core/part_miner.h"
#include "datagen/update_generator.h"
#include "graph/graph.h"
#include "miner/pattern_set.h"

namespace partminer {

/// Outcome of one incremental round: the new exact pattern set of the
/// updated database plus the paper's three classification sets
/// (Section 4.5): UF (frequent before and after), FI (frequent ->
/// infrequent), IF (infrequent -> frequent). UF is every pattern of
/// `patterns` not in IF, so only its size is kept.
struct IncPartMinerResult {
  PatternSet patterns;  // P(D'), exact.
  int uf = 0;
  PatternSet fi;   // With their pre-update info.
  PatternSet if_;  // With their post-update info.

  /// Always empty: Update routes nothing to units.
  SetWord remined_units;

  double route_seconds = 0;   // Always 0: Update does no routing.
  double merge_seconds = 0;   // Root IncMergeJoin.
  double verify_seconds = 0;  // UF/FI/IF classification.

  MergeJoinStats merge_stats;
  VerifyStats verify_stats;  // Nothing is re-counted: always 0.

  /// Update mines no unit, so the unit share of a round is 0.
  double UnitSecondsSum() const { return 0; }
  /// merge + classification.
  double AggregateSeconds() const;
};

/// IncPartMiner (Figure 12): updates a mined PartMiner in place.
///
/// A round is root IncMergeJoin → classify. The root's IncMergeJoin
/// recovers the exact pattern set of the updated database from the root's
/// own cached set and frontier, touching work proportional to the update
/// (`log.updated_graphs`). The paper's setword of units to re-mine only
/// selects leaves whose results the root never reads, so no partition is
/// kept and nothing is routed.
///
/// The paper's prune set (unit patterns that vanished from a re-mined unit)
/// only marks candidates for its final check; with the root merge exact,
/// the classification is the set of transitions IncMergeJoin reports, with
/// no isomorphism test and no pass over the unchanged patterns. Tests
/// compare every field against a from-scratch re-mining.
class IncPartMiner {
 public:
  IncPartMiner() = default;

  /// Applies one update round. `state` must have completed Mine();
  /// `new_db` is the updated database (same graph count, vertices only
  /// added, per the paper's update model); `log` is the update log from
  /// ApplyUpdates. The state's root pattern set and root frontier are
  /// updated so further rounds can follow.
  IncPartMinerResult Update(PartMiner* state, const GraphDatabase& new_db,
                            const UpdateLog& log);
};

}  // namespace partminer

#endif  // PARTMINER_CORE_INC_PART_MINER_H_
