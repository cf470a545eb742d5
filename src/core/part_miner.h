#ifndef PARTMINER_CORE_PART_MINER_H_
#define PARTMINER_CORE_PART_MINER_H_

#include <climits>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/merge_join.h"
#include "graph/graph.h"
#include "miner/miner.h"
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

  PartitionOptions partition;
  UnitMinerKind unit_miner = UnitMinerKind::kGaston;
  int max_edges = INT_MAX;

  /// Forwarded to IncMergeJoin (see MergeJoinOptions): updated-graph share
  /// above which the incremental merge falls back to an exact re-sweep.
  double inc_delta_sweep_max_fraction = 0.15;

  /// Number of threads for unit mining — the width of the work-stealing
  /// pool (see common/thread_pool.h). 0 mines units serially (the default;
  /// the *parallel time* metric is still reported). Positive values run
  /// units concurrently in longest-unit-first order — "PartMiner is
  /// inherently parallel in nature" (Section 1) — and additionally fan the
  /// unit miners' extension subtrees onto the same pool, so idle workers
  /// steal work from a straggling unit instead of waiting for it.
  int unit_mining_threads = 0;
};

/// Verification work. The root merge is exact, so nothing is re-counted
/// after it and the count stays 0; reports keep the column.
struct VerifyStats {
  int64_t graphs_examined = 0;
};

/// Outcome of one PartMiner run, including the timing decomposition the
/// paper reports: aggregate (serial) time sums all unit mining times,
/// parallel time takes their maximum — "in the parallel mode (with 1 CPU),
/// the units are executed concurrently and we take the maximum of the time
/// spent in the units" (Section 5.1.3).
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

/// The PartMiner algorithm (Figure 11). Phase 1 divides the database into k
/// units via recursive bi-partitioning (DBPartition, Figure 6); Phase 2
/// mines each unit with the memory-based miner at reduced support and
/// recombines the unit results with one merge-join at the root, whose
/// output is exact. Only the root's set is ever read, so no interior node
/// of the merge tree is swept.
///
/// Support thresholds: the root uses the requested support; each merge-tree
/// node at depth d uses ceil(sup / 2^d); a leaf unit is mined at its node
/// threshold. For power-of-two k this equals the paper's sup/k leaf rule;
/// for other k it is the strict-halving generalization that Theorem 3's
/// pigeonhole argument actually requires (see DESIGN.md).
///
/// After Mine() the object retains the partition, the root pattern set (the
/// result) and the root frontier — the state IncPartMiner updates
/// incrementally. The unit sets are dropped after the root merge.
class PartMiner {
 public:
  explicit PartMiner(const PartMinerOptions& options);

  /// Mines `db`. The database must outlive the PartMiner when IncPartMiner
  /// is used afterwards.
  PartMinerResult Mine(const GraphDatabase& db);

  const PartMinerOptions& options() const { return options_; }

  /// State accessors for IncPartMiner and the experiment harnesses.
  bool mined() const { return mined_; }
  const PartitionedDatabase& partitioned() const { return partitioned_; }
  PartitionedDatabase& mutable_partitioned() { return partitioned_; }
  /// The exact result of the last Mine()/incremental update: the root's
  /// pattern set at the root support.
  const PatternSet& patterns() const { return patterns_; }
  PatternSet& mutable_patterns() { return patterns_; }
  /// The root's mining frontier (see FrontierMap) — the cache that makes
  /// IncMergeJoin isomorphism-free.
  const NodeFrontier& root_frontier() const { return root_frontier_; }
  NodeFrontier& mutable_root_frontier() { return root_frontier_; }
  /// Every frontier the miner keeps: only the root captures one.
  std::span<const NodeFrontier> node_frontiers() const {
    return {&root_frontier_, 1};
  }
  /// Support threshold for tree node `index`.
  int NodeSupport(int index) const;
  /// Resolved absolute root support for a database of `db_size` graphs.
  int ResolveSupport(int db_size) const;

  /// Creates the configured unit miner.
  std::unique_ptr<FrequentSubgraphMiner> MakeUnitMiner() const;

  /// State-restoration hook for LoadMinerState: marks the miner as mined
  /// with the given resolved root support. The partition, root pattern set
  /// and root frontier must have been installed through the mutable
  /// accessors.
  void RestoreMinedState(int root_support) {
    mined_ = true;
    root_support_ = root_support;
  }
  int root_support() const { return root_support_; }

 private:
  PartMinerOptions options_;
  bool mined_ = false;
  int root_support_ = 0;
  PartitionedDatabase partitioned_;
  PatternSet patterns_;
  NodeFrontier root_frontier_;
};

}  // namespace partminer

#endif  // PARTMINER_CORE_PART_MINER_H_
