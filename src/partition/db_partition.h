#ifndef PARTMINER_PARTITION_DB_PARTITION_H_
#define PARTMINER_PARTITION_DB_PARTITION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/setword.h"
#include "graph/graph.h"
#include "partition/graph_part.h"

namespace partminer {

/// Which bisection algorithm drives the recursive splitting — the four
/// alternatives compared in Figure 13.
enum class PartitionCriteria {
  kIsolation = 0,   // Partition1: lambda1=1, lambda2=0.
  kMinCut = 1,      // Partition2: lambda1=0, lambda2=1.
  kCombined = 2,    // Partition3: lambda1=1, lambda2=1.
  kMultilevel = 3,  // METIS-style multilevel bisection.
};

const char* PartitionCriteriaName(PartitionCriteria c);

struct PartitionOptions {
  int k = 2;  // Number of units; the paper varies 2..6.
  PartitionCriteria criteria = PartitionCriteria::kCombined;
  uint64_t seed = 1;
};

/// One node of the merge tree: covers units [lo, hi). Leaves (hi-lo == 1)
/// are the units; internal nodes are where merge-joins happen. Node 0 is
/// the root, covering [0, k).
struct MergeTreeNode {
  int lo = 0;
  int hi = 0;
  int left = -1;   // Child node indices; -1 for leaves.
  int right = -1;
  int depth = 0;
};

/// The product of DBPartition (Figure 6): a per-graph assignment of every
/// vertex to one of k units, produced by recursive bisection, plus the merge
/// tree that mirrors the splitting.
///
/// The edge-placement rule follows Section 4.1: an edge belongs to every
/// unit owning one of its endpoints, so connective (cut) edges are
/// duplicated into both adjacent units. Consequently a tree node's subgraph
/// of graph G is exactly the edges with at least one endpoint assigned to a
/// unit in [lo, hi) — nothing beyond the vertex assignment needs storing.
class PartitionedDatabase {
 public:
  /// Partitions every graph of `db` into `options.k` units.
  static PartitionedDatabase Create(const GraphDatabase& db,
                                    const PartitionOptions& options);

  int k() const { return k_; }
  const std::vector<MergeTreeNode>& tree() const { return tree_; }
  int root() const { return 0; }

  /// Unit owning vertex `v` of database graph `graph_index`.
  int unit_of(int graph_index, VertexId v) const {
    return assignment_[graph_index][v];
  }

  /// Materializes the database of subgraphs for tree node [lo, hi): one
  /// (possibly empty) graph per database graph, index-aligned with `db`,
  /// containing every edge with at least one endpoint in a unit of the
  /// range. Isolated vertices are dropped. `db` must be the database this
  /// partition was created from (or an updated version already routed with
  /// ExtendAssignments).
  GraphDatabase Materialize(const GraphDatabase& db, int lo, int hi) const;

  /// Convenience: materializes leaf unit `j`.
  GraphDatabase MaterializeUnit(const GraphDatabase& db, int j) const {
    return Materialize(db, j, j + 1);
  }

  /// Routes updates: assigns any vertices added to `db` since Create() to
  /// the unit of their lowest-numbered neighbor. Call after applying
  /// updates and before Materialize/TouchedUnits on the updated database.
  void ExtendAssignments(const GraphDatabase& db);

  /// Units whose subgraphs are affected by the touched vertices: the unit of
  /// each touched vertex plus the units of its neighbors (a changed edge
  /// (u,v) lives in unit(u) and unit(v)). This is the paper's `setword`
  /// input to IncPartMiner.
  SetWord TouchedUnits(
      const GraphDatabase& db,
      const std::vector<std::pair<int, VertexId>>& touched) const;

  /// Total connective (cut) edges across all graphs — the partition-quality
  /// metric the weight function trades against isolation. A default-
  /// constructed (empty) partition has none; otherwise `db` must be the
  /// partitioned database (checked).
  int64_t TotalCutEdges(const GraphDatabase& db) const;

  /// Per-graph unit assignments.
  const std::vector<std::vector<int>>& assignments() const {
    return assignment_;
  }

  /// Sum over touched vertices of TouchedUnits cardinality — how well the
  /// partitioning isolated updates.
  double AverageTouchedUnits(
      const GraphDatabase& db,
      const std::vector<std::pair<int, VertexId>>& touched) const;

 private:
  int k_ = 0;
  std::vector<MergeTreeNode> tree_;
  /// assignment_[graph][vertex] = unit in [0, k).
  std::vector<std::vector<int>> assignment_;
};

}  // namespace partminer

#endif  // PARTMINER_PARTITION_DB_PARTITION_H_
