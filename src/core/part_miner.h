#ifndef PARTMINER_CORE_PART_MINER_H_
#define PARTMINER_CORE_PART_MINER_H_

#include <climits>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/merge_join.h"
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

  /// DBPartition settings. Only MinePaperPipeline reads them: PartMiner
  /// keeps no partition.
  PartitionOptions partition;
  UnitMinerKind unit_miner = UnitMinerKind::kGaston;
  int max_edges = INT_MAX;

  /// Forwarded to IncMergeJoin (see MergeJoinOptions): updated-graph share
  /// above which the incremental merge falls back to an exact re-sweep.
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

/// The resident miner: the root of the paper's merge tree (Figure 11) and
/// the state IncPartMiner updates in place. Mine() is one exact
/// frontier-capturing sweep of the whole database at the requested support
/// (MergeJoin); the object keeps only the root pattern set (the result) and
/// the root frontier. The paper's Phase 1 and Phase 2 feed nothing the root
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
  /// IncMergeJoin isomorphism-free.
  const NodeFrontier& root_frontier() const { return root_frontier_; }
  NodeFrontier& mutable_root_frontier() { return root_frontier_; }
  /// Every frontier the miner keeps: only the root's.
  std::span<const NodeFrontier> node_frontiers() const {
    return {&root_frontier_, 1};
  }
  /// Resolved absolute root support for a database of `db_size` graphs.
  int ResolveSupport(int db_size) const;

  /// State-restoration hook for LoadMinerState: marks the miner as mined
  /// with the given resolved root support. The root pattern set and root
  /// frontier must have been installed through the mutable accessors.
  void RestoreMinedState(int root_support) {
    mined_ = true;
    root_support_ = root_support;
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
/// PartMiner::Mine's sweep. The partition and the unit sets are dropped on
/// return: they fill only the timings and the `inherited_patterns` and
/// `spanning_found` merge counters. The patterns are those of
/// PartMiner::Mine. `root_frontier`, when non-null, receives the frontier
/// the root sweep captured.
PartMinerResult MinePaperPipeline(const GraphDatabase& db,
                                  const PartMinerOptions& options,
                                  NodeFrontier* root_frontier = nullptr);

}  // namespace partminer

#endif  // PARTMINER_CORE_PART_MINER_H_
