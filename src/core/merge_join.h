#ifndef PARTMINER_CORE_MERGE_JOIN_H_
#define PARTMINER_CORE_MERGE_JOIN_H_

#include <climits>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "miner/pattern_set.h"

namespace partminer {

struct MergeJoinOptions {
  /// Absolute minimum support at the merged database (the root threshold).
  int min_support = 1;
  int max_edges = INT_MAX;

  /// IncMergeJoin cost-model switch: the update-proportional delta sweep
  /// wins while the updated graphs are a minority of the node database;
  /// beyond this fraction a plain exact re-sweep is cheaper. Both paths are
  /// exact; this only picks the cheaper one.
  double delta_sweep_max_fraction = 0.15;
};

/// Work counters for the merge operators.
struct MergeJoinStats {
  int64_t inherited_patterns = 0;   // MinePaperPipeline: unit patterns.
  int64_t cached_patterns = 0;      // IncMergeJoin: cached patterns reused.
  int64_t delta_recounts = 0;       // IncMergeJoin: cached patterns delta-verified.
  int64_t candidates_generated = 0; // Extension candidates examined.
  int64_t candidates_counted = 0;   // Candidates needing a support count.
  int64_t candidates_skipped_known = 0;  // Skipped: already in the cache.
  int64_t spanning_found = 0;       // Frequent patterns no input held.

  void Accumulate(const MergeJoinStats& other);

  /// Adds these values to the process metrics registry (merge.* counters).
  /// MergeJoin/IncMergeJoin publish their per-call deltas automatically.
  void PublishToRegistry() const;
};

/// The merge-join of Section 4.3 at the root of the merge tree: recovers
/// the *exact* frequent pattern set of `db` (the recombination of every
/// unit) at `options.min_support`.
///
/// With exactness required at the root, the recovery operator is a full
/// DFS-code sweep of the database seeded at its frequent 1-edge patterns
/// (every frequent pattern is reachable through its minimal-code prefix
/// chain, whose members are frequent by the Apriori property — Theorems
/// 1-3 in the paper). The sweep reads no unit result, so it takes none; the
/// candidate-reuse machinery the paper describes pays off in the
/// *incremental* operator below, which is where the paper's evaluation
/// exercises it.
///
/// Every pattern in the result carries exact support and TID lists for
/// `db`. `frontier_out`, when non-null, receives the root's mining frontier
/// (see Frontier) for consumption by later IncMergeJoin calls.
PatternSet MergeJoin(const GraphDatabase& db, const MergeJoinOptions& options,
                     MergeJoinStats* stats, NodeFrontier* frontier_out);

/// The pattern transitions of one IncMergeJoin call (Section 4.5), by
/// code: IF (infrequent -> frequent) and FI (frequent -> infrequent). The
/// delta path reads them off the sweep; the re-sweep path takes set
/// differences.
struct MergeTransitions {
  std::vector<DfsCode> became_frequent;
  std::vector<DfsCode> became_infrequent;
};

/// The incremental merge (IncMergeJoin, Figure 12): recovers the exact
/// frequent pattern set of a node's *updated* database from the node's
/// cached pre-update pattern set, touching work proportional to the update.
/// `cached` must be that exact set at `options.min_support`: its codes are
/// then the minimal ones, which lets both paths skip the minimality test
/// for codes whose verdict they already know (DESIGN §10).
///
///  1. Every cached pattern is delta-recounted — only `updated_graphs` are
///     re-examined; containment elsewhere cannot have changed. Patterns
///     falling below threshold drop out (the paper's FI direction) and
///     move to the frontier.
///  2. New patterns are discovered by sweeping rightmost extensions of
///     verified patterns *projected onto the updated graphs only*: a
///     pattern that became frequent must have gained an occurrence, so it
///     occurs in an updated graph, and so does every prefix of its minimal
///     code (per-graph Apriori). Support outside the updated graphs is
///     counted within the parent's exact TID list.
///
/// This is the precise sense in which "IncPartMiner makes use of the pruned
/// results of the pre-updated database to eliminate the generation of
/// unchanged candidate graphs" (Section 1): unchanged candidates are never
/// re-generated or re-counted outside the updated graphs.
///
/// `frontier` is the node's cached frontier (in/out): candidates looked up
/// there are re-counted by set arithmetic alone, and it is left holding the
/// post-update frontier. Its invariant: every code the sweep can reach (all
/// DFS-code prefixes frequent and minimal) that is not in `cached` either
/// has a live entry whose lazily stripped TIDs are exact or has no
/// occurrence at all. A cached pattern that falls below threshold is
/// therefore written to the frontier even when the sweep never reaches it.
/// A delta round opens a frontier epoch instead of stripping every entry,
/// and a reached pattern that falls frequent -> infrequent cuts its subtree
/// by logging its code (Frontier::Cut), not by scanning the frontier. The
/// whole-frontier pass (Frontier::Compact) runs only once the graphs
/// updated since the last one exceed `delta_sweep_max_fraction` of the
/// database. With a null or invalid frontier the call takes the exact
/// re-sweep path, which replaces the frontier wholesale.
///
/// `transitions`, when non-null, receives the round's IF and FI codes.
PatternSet IncMergeJoin(const GraphDatabase& node_db, const PatternSet& cached,
                        const std::vector<int>& updated_graphs,
                        const MergeJoinOptions& options,
                        MergeJoinStats* stats, NodeFrontier* frontier,
                        MergeTransitions* transitions = nullptr);

}  // namespace partminer

#endif  // PARTMINER_CORE_MERGE_JOIN_H_
