#ifndef PARTMINER_ADI_ADI_INDEX_H_
#define PARTMINER_ADI_ADI_INDEX_H_

#include <map>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "storage/buffer_pool.h"

namespace partminer {

/// Disk-resident graph index in the spirit of the ADI structure of Wang et
/// al. [15] (the paper's ADIMINE baseline): every database graph is
/// serialized into pages behind a buffer pool, and an edge table maps each
/// distinct labeled edge (l_u, l_e, l_v), l_u <= l_v, to the list of graphs
/// containing it.
///
/// The property the paper's evaluation leans on is structural: the index
/// supports efficient mining scans, but any change to the database requires
/// rebuilding it from scratch ("the ADI structure has to be rebuilt each
/// time the graph database is being updated", Section 2).
class AdiIndex {
 public:
  explicit AdiIndex(BufferPool* pool) : pool_(pool) {}

  /// Serializes `db` into the page file and builds the edge table. Discards
  /// any previous contents.
  Status Build(const GraphDatabase& db);

  /// Decodes graph `index` from its pages.
  Status LoadGraph(int index, Graph* out) const;

  int graph_count() const { return static_cast<int>(directory_.size()); }
  int64_t pages_used() const { return pages_used_; }

  /// Edge table: canonical labeled-edge triple -> graph indices containing
  /// it (ascending).
  const std::map<std::tuple<Label, Label, Label>, std::vector<int>>&
  edge_table() const {
    return edge_table_;
  }

  /// Graph indices containing at least one edge that is frequent at
  /// `min_support` — the scan filter ADI-style mining starts from.
  std::vector<int> GraphsWithFrequentEdges(int min_support) const;

 private:
  struct DirectoryEntry {
    PageId first_page = kInvalidPageId;
    int32_t byte_offset = 0;  // Offset of the graph record in first_page.
  };

  BufferPool* pool_;
  std::vector<DirectoryEntry> directory_;
  std::map<std::tuple<Label, Label, Label>, std::vector<int>> edge_table_;
  int64_t pages_used_ = 0;
};

}  // namespace partminer

#endif  // PARTMINER_ADI_ADI_INDEX_H_
