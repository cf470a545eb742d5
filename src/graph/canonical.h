#ifndef PARTMINER_GRAPH_CANONICAL_H_
#define PARTMINER_GRAPH_CANONICAL_H_

#include "graph/dfs_code.h"
#include "graph/graph.h"

namespace partminer {

/// Computes the minimum DFS code of a connected graph (Section 3). The
/// minimum code is a canonical label: two connected labeled graphs are
/// isomorphic iff their minimum DFS codes are equal. The graph must be
/// connected and have at least one edge.
///
/// Implementation: greedy stepwise minimization over all partial embeddings
/// (the procedure underlying gSpan's is_min test), with a backtracking
/// fallback should the greedy frontier ever dead-end.
DfsCode MinimumDfsCode(const Graph& graph);

/// True iff `code` is the minimum DFS code of the graph it encodes. Used by
/// the miners to prune duplicate enumeration branches. Cheaper than building
/// the full minimum code because it stops at the first differing position.
/// A pure function of `code`: nothing is cached, so a caller that already
/// knows the verdict (a code it emitted or stored as a pattern) skips the
/// call instead (DESIGN §10).
bool IsMinimalDfsCode(const DfsCode& code);

/// No-op, kept for callers written when verdicts were memoized.
void ClearMinimalityCache();

/// Exhaustive-reference implementation of MinimumDfsCode that explores every
/// valid DFS enumeration with full backtracking. Exponential in the worst
/// case; exposed so property tests can validate the greedy fast path against
/// the ground truth on small graphs.
DfsCode MinimumDfsCodeExhaustive(const Graph& graph);

/// Canonical label equality: isomorphism test for connected labeled graphs.
bool AreIsomorphic(const Graph& a, const Graph& b);

}  // namespace partminer

#endif  // PARTMINER_GRAPH_CANONICAL_H_
