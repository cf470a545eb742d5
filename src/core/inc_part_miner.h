#ifndef PARTMINER_CORE_INC_PART_MINER_H_
#define PARTMINER_CORE_INC_PART_MINER_H_

#include <vector>

#include "common/setword.h"
#include "core/part_miner.h"
#include "datagen/update_generator.h"
#include "graph/graph.h"
#include "miner/pattern_set.h"

namespace partminer {

/// Outcome of one incremental round: the paper's classification sets
/// (Section 4.5) — UF (frequent before and after), FI (frequent ->
/// infrequent), IF (infrequent -> frequent) — and, of UF, the codes whose
/// support changed. Together with the miner's own pattern set, which the
/// round edits in place, they are the whole change: a reader that keeps a
/// copy of the set patches it from `if_`, `fi` and `changed` alone. UF is
/// every pattern of the new set not in IF, so only its size is kept.
struct IncPartMinerResult {
  /// P(D'), exact: a copy of the miner's set after the round, for the
  /// readers that still take the result by value. Filled by Update only.
  PatternSet patterns;
  int uf = 0;
  PatternSet fi;   // With their pre-update info.
  PatternSet if_;  // With their post-update info.
  /// Codes frequent before and after whose support differs; their new
  /// info is in the miner's set. Each code appears once.
  std::vector<DfsCode> changed;

  /// Always empty: Update routes nothing to units.
  SetWord remined_units;

  double route_seconds = 0;   // Always 0: Update does no routing.
  double merge_seconds = 0;   // Root IncMergeJoin, classification included.
  double verify_seconds = 0;  // Always 0: the merge classifies as it goes.

  MergeJoinStats merge_stats;
  VerifyStats verify_stats;  // Nothing is re-counted: always 0.

  /// Update mines no unit, so the unit share of a round is 0.
  double UnitSecondsSum() const { return 0; }
  /// merge + classification.
  double AggregateSeconds() const;
};

/// IncPartMiner (Figure 12): updates a mined PartMiner in place.
///
/// A round is the paper's IncMergeJoin at the root: it recovers the exact
/// pattern set of the updated database from the root's own cached set and
/// frontier, touching work proportional to the update
/// (`log.updated_graphs`). The paper's setword of units to re-mine only
/// selects leaves whose results the root never reads, so no partition is
/// kept and nothing is routed.
///
///  1. Pass 1: every cached pattern whose TIDs meet the updated graphs is
///     stripped of them in place — containment elsewhere cannot have
///     changed. Patterns falling below threshold are parked (their TIDs
///     also go to the frontier) and, unless the sweep re-frequents them,
///     leave the set after it (the paper's FI direction). The other
///     patterns are not touched.
///  2. Pass 2: new patterns are discovered by sweeping rightmost extensions
///     of verified patterns over the live database, from the single-edge
///     roots of the *updated graphs only*, so every embedding swept lies in
///     an updated graph: a pattern that became frequent must have gained an
///     occurrence, so it occurs in an updated graph, and so does every
///     prefix of its minimal code (per-graph Apriori). Support outside the
///     updated graphs is read off the cached set or the frontier by set
///     arithmetic. The round builds no second database.
///
/// This is the precise sense in which "IncPartMiner makes use of the pruned
/// results of the pre-updated database to eliminate the generation of
/// unchanged candidate graphs" (Section 1): unchanged candidates are never
/// re-generated or re-counted outside the updated graphs. The cached set is
/// exact, so its codes are the minimal ones, which lets the sweep skip the
/// minimality test for codes whose verdict it already knows (DESIGN §10).
///
/// The frontier's invariant: every code the sweep can reach (all DFS-code
/// prefixes frequent and minimal) that is not a cached pattern either has a
/// live entry whose lazily stripped TIDs are exact or has no occurrence at
/// all. A delta round opens a frontier epoch instead of stripping every
/// entry, and a pattern that falls frequent -> infrequent cuts its subtree
/// by stamping its node (Frontier::Cut), not by scanning the frontier. The
/// whole-frontier pass (Frontier::Compact) runs only once the graphs
/// updated since the last one exceed half the database. Every round that
/// updates a graph takes these two passes, whatever share it updates, and
/// runs on the calling thread.
///
/// The paper's prune set (unit patterns that vanished from a re-mined unit)
/// only marks candidates for its final check; with the root merge exact,
/// the classification is the set of transitions the merge finds, with no
/// isomorphism test and no pass over the unchanged patterns. Tests compare
/// every field against a from-scratch re-mining.
class IncPartMiner {
 public:
  IncPartMiner() = default;

  /// Applies one update round. `state` must have completed Mine();
  /// `new_db` is the updated database (same graph count, vertices only
  /// added, per the paper's update model); `log` is the update log from
  /// ApplyUpdates. The state's root pattern set and root frontier are
  /// edited in place so further rounds can follow; a round that updates no
  /// graph leaves both as they are. Returns the change only: `patterns`
  /// stays empty, and the new set is `state->patterns()`.
  IncPartMinerResult ApplyRound(PartMiner* state, const GraphDatabase& new_db,
                                const UpdateLog& log);

  /// ApplyRound, plus a copy of the new set in the result's `patterns`.
  IncPartMinerResult Update(PartMiner* state, const GraphDatabase& new_db,
                            const UpdateLog& log);
};

}  // namespace partminer

#endif  // PARTMINER_CORE_INC_PART_MINER_H_
