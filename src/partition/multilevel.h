#ifndef PARTMINER_PARTITION_MULTILEVEL_H_
#define PARTMINER_PARTITION_MULTILEVEL_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace partminer {

/// Options for the METIS-style multilevel bisector used as the partitioning
/// comparator in Figure 13 ("we also use the METIS approach to partition the
/// graphs before mining").
struct MultilevelOptions {
  uint64_t seed = 1;
};

/// Multilevel bisection after Karypis & Kumar [7]: coarsen by heavy-edge
/// matching (collapsing matched vertex pairs, accumulating vertex and edge
/// weights), bisect the coarsest graph by greedy region growing, then
/// uncoarsen while applying gain-based boundary refinement. Returns a side
/// id (0/1) per vertex. Edge and vertex labels are ignored — METIS is
/// topology-only, which is exactly why the paper's update-aware criteria
/// beat it on dynamic workloads.
std::vector<int> MultilevelBisect(const Graph& g,
                                  const MultilevelOptions& options);

}  // namespace partminer

#endif  // PARTMINER_PARTITION_MULTILEVEL_H_
