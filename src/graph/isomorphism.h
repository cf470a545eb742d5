#ifndef PARTMINER_GRAPH_ISOMORPHISM_H_
#define PARTMINER_GRAPH_ISOMORPHISM_H_

#include <vector>

#include "graph/graph.h"

namespace partminer {

/// Subgraph-isomorphism tests (Section 3): an injective mapping of pattern
/// vertices to host vertices preserving vertex labels, and mapping every
/// pattern edge to a host edge with the same label (non-induced).
///
/// The matcher is a backtracking search with a connected, most-constrained-
/// first vertex ordering precomputed per pattern. For the pattern sizes that
/// arise in frequent-subgraph mining (a handful of edges) this is the
/// standard tool; it is what the merge-join's CheckFrequency step uses.
class SubgraphMatcher {
 public:
  /// Prepares the matching order for `pattern`. The pattern must be
  /// connected and non-empty. The pattern is copied; the matcher stays valid
  /// after the original is destroyed.
  explicit SubgraphMatcher(const Graph& pattern);

  /// True iff the pattern occurs in `host`.
  bool Matches(const Graph& host) const;

 private:
  struct Constraint {
    int earlier_position;  // Position in the matching order.
    Label edge_label;
  };

  bool MatchFrom(const Graph& host, int position,
                 std::vector<VertexId>* assignment,
                 std::vector<bool>* used) const;

  Graph pattern_;
  std::vector<VertexId> order_;            // Pattern vertices, match order.
  std::vector<std::vector<Constraint>> constraints_;  // Per order position.
  std::vector<int> pattern_degree_;        // Per order position.
};

/// One-shot convenience wrapper around SubgraphMatcher.
bool ContainsSubgraph(const Graph& host, const Graph& pattern);

}  // namespace partminer

#endif  // PARTMINER_GRAPH_ISOMORPHISM_H_
