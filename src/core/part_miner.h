#ifndef PARTMINER_CORE_PART_MINER_H_
#define PARTMINER_CORE_PART_MINER_H_

#include <climits>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "miner/pattern_set.h"
#include "partition/db_partition.h"

namespace partminer {

/// Which memory-based miner runs inside each unit (Section 4.2 uses Gaston;
/// gSpan is available for ablations).
enum class UnitMinerKind { kGaston = 0, kGSpan = 1 };

struct PartMinerOptions {
  /// Minimum support as a fraction of the database size (the paper's 1%-6%),
  /// ignored when min_support_count > 0.
  double min_support_fraction = 0.04;
  /// Absolute minimum support; takes precedence when positive.
  int min_support_count = -1;

  /// Resolved absolute support for a database of `db_size` graphs.
  int ResolveSupport(int db_size) const;

  /// DBPartition settings. Only MinePaperPipeline reads them: PartMiner
  /// keeps no partition.
  PartitionOptions partition;
  UnitMinerKind unit_miner = UnitMinerKind::kGaston;
  int max_edges = INT_MAX;

  /// IncPartMiner's cost-model switch: the update-proportional delta sweep
  /// wins while the updated graphs are a minority of the database; beyond
  /// this share a plain exact re-sweep is cheaper. Both paths are exact;
  /// this only picks the cheaper one.
  double inc_delta_sweep_max_fraction = 0.15;

  /// MinePaperPipeline only: the width of the work-stealing pool the units
  /// are mined on (see common/thread_pool.h). 0 mines units serially (the
  /// *parallel time* metric is still reported). Positive values run units
  /// concurrently in longest-unit-first order — "PartMiner is inherently
  /// parallel in nature" (Section 1) — and fan the unit miners' extension
  /// subtrees onto the same pool, so idle workers steal work from a
  /// straggling unit instead of waiting for it. The root sweep is serial.
  int unit_mining_threads = 0;
};

/// Work counters of the root merge, published as the merge.* counters.
struct MergeJoinStats {
  int64_t inherited_patterns = 0;   // MinePaperPipeline: unit patterns.
  int64_t cached_patterns = 0;      // Update: cached patterns reused.
  int64_t delta_recounts = 0;       // Update: cached patterns delta-verified.
  int64_t candidates_generated = 0; // Extension candidates examined.
  int64_t candidates_counted = 0;   // Candidates needing a support count.
  int64_t candidates_skipped_known = 0;  // Skipped: already in the cache.
  int64_t spanning_found = 0;       // Frequent patterns no input held.

  /// Adds these values to the process metrics registry (merge.* counters).
  void PublishToRegistry() const;
};

/// Verification work. The root merge is exact, so nothing is re-counted
/// after it and the count stays 0; reports keep the column.
struct VerifyStats {
  int64_t graphs_examined = 0;
};

/// Outcome of one mining run, including the timing decomposition the paper
/// reports: aggregate (serial) time sums all unit mining times, parallel
/// time takes their maximum — "in the parallel mode (with 1 CPU), the units
/// are executed concurrently and we take the maximum of the time spent in
/// the units" (Section 5.1.3). Only MinePaperPipeline partitions and mines
/// units; after PartMiner::Mine those fields are 0 or empty.
struct PartMinerResult {
  PatternSet patterns;  // Exact frequent subgraphs of D at min support.

  double partition_seconds = 0;
  std::vector<double> unit_mining_seconds;  // Per unit.
  double merge_seconds = 0;
  double verify_seconds = 0;  // No verify pass runs: always 0.

  MergeJoinStats merge_stats;
  VerifyStats verify_stats;
  int min_support_count = 0;

  double UnitSecondsSum() const;
  double UnitSecondsMax() const;
  /// partition + sum(units) + merge.
  double AggregateSeconds() const;
  /// partition + max(units) + merge.
  double ParallelSeconds() const;
};

/// The merge-join of Section 4.3 at the root of the merge tree (the paper's
/// MergeJoin, Figure 11 lines 9-17): recovers the *exact* frequent pattern
/// set of `db`, the recombination of every unit, at `min_support`.
///
/// With exactness required at the root, the recovery operator is a full
/// DFS-code sweep of the database seeded at its frequent 1-edge patterns
/// (every frequent pattern is reachable through its minimal-code prefix
/// chain, whose members are frequent by the Apriori property — Theorems
/// 1-3 in the paper). The sweep reads no unit result, so it takes none; the
/// candidate reuse the paper describes pays off in the incremental merge
/// (IncPartMiner), which is where the paper's evaluation exercises it.
///
/// Every pattern carries exact support and TIDs. `capture`, when non-null,
/// receives the sweep's frontier (see Frontier). `known`, when non-null, is
/// an exact pattern set of the database before an update: the codes it
/// holds skip the minimality test, since such a set holds only minimal
/// codes. Every emitted pattern counts as a counted candidate in `stats`.
PatternSet RootSweep(const GraphDatabase& db, int min_support, int max_edges,
                     Frontier* capture, const PatternSet* known,
                     MergeJoinStats* stats);

/// The resident miner: the root of the paper's merge tree (Figure 11) and
/// the state IncPartMiner updates in place. Mine() is one exact
/// frontier-capturing RootSweep of the whole database at the requested
/// support; the object keeps only the root pattern set (the result) and the
/// root frontier. The paper's Phase 1 and Phase 2 feed nothing the root
/// reads, so they live in MinePaperPipeline, which the figure harnesses
/// time.
class PartMiner {
 public:
  explicit PartMiner(const PartMinerOptions& options);

  /// Mines `db`: resolves the support and runs the root sweep with frontier
  /// capture. No partition is computed and no unit is mined.
  PartMinerResult Mine(const GraphDatabase& db);

  const PartMinerOptions& options() const { return options_; }

  /// State accessors for IncPartMiner and the experiment harnesses.
  bool mined() const { return mined_; }
  /// Always an empty partition: the miner keeps none.
  const PartitionedDatabase& partitioned() const;
  /// The exact result of the last Mine()/incremental update: the root's
  /// pattern set at the root support.
  const PatternSet& patterns() const { return patterns_; }
  PatternSet& mutable_patterns() { return patterns_; }
  /// The root's mining frontier (see Frontier) — the cache that makes
  /// IncPartMiner's delta sweep isomorphism-free.
  const NodeFrontier& root_frontier() const { return root_frontier_; }
  NodeFrontier& mutable_root_frontier() { return root_frontier_; }
  /// Every frontier the miner keeps: only the root's.
  std::span<const NodeFrontier> node_frontiers() const {
    return {&root_frontier_, 1};
  }
  int root_support() const { return root_support_; }

 private:
  PartMinerOptions options_;
  bool mined_ = false;
  int root_support_ = 0;
  PatternSet patterns_;
  NodeFrontier root_frontier_;
};

/// Support threshold of a merge-tree node at `depth` below a root mined at
/// `root_support`: ceil(sup / 2^depth), by repeated halving, at least 1.
/// For power-of-two k a leaf gets the paper's sup/k; for other k this is
/// the strict-halving generalization that Theorem 3's pigeonhole argument
/// actually requires (see DESIGN.md).
int NodeSupport(int root_support, int depth);

/// The paper's PartMiner pipeline (Figure 11), as the figures time it.
/// Phase 1 divides every graph into `options.partition.k` units by
/// recursive bisection (DBPartition, Figure 6); Phase 2 mines each unit
/// with the configured memory-based miner at its NodeSupport, on a pool of
/// `options.unit_mining_threads` workers, then recombines at the root with
/// a RootSweep that captures no frontier. The partition and the unit sets
/// are dropped on return: they fill only the timings and the
/// `inherited_patterns` and `spanning_found` merge counters. The patterns
/// are those of PartMiner::Mine.
PartMinerResult MinePaperPipeline(const GraphDatabase& db,
                                  const PartMinerOptions& options);

}  // namespace partminer

#endif  // PARTMINER_CORE_PART_MINER_H_
