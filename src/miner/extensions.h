#ifndef PARTMINER_MINER_EXTENSIONS_H_
#define PARTMINER_MINER_EXTENSIONS_H_

#include <vector>

#include "graph/dfs_code.h"
#include "graph/graph.h"
#include "miner/pattern_set.h"

namespace partminer {

/// Exact frequent 1-edge patterns of `db` (one scan), with supports and TID
/// lists — the P1 sets everything level-wise starts from.
PatternSet FrequentSingleEdges(const GraphDatabase& db, int min_support);

/// All canonical single-edge extensions of `pattern` restricted to the edge
/// vocabulary `frequent_edges` (1-edge canonical codes): attach a new
/// labeled vertex anywhere, or close an edge between two non-adjacent
/// vertices. Reference generator for property tests.
std::vector<DfsCode> GenerateExtensions(const Graph& pattern,
                                        const PatternSet& frequent_edges);

/// Minimal-code rightmost extensions of the canonical code `base` whose
/// edge triples are in `frequent_edges`. Because the k-edge prefix of a
/// minimal (k+1)-code is minimal and encodes a frequent subpattern, these
/// candidates reach every frequent (k+1)-pattern exactly once — the
/// generator behind the Apriori-style miner and the property tests.
std::vector<DfsCode> RightmostExtensions(const DfsCode& base,
                                         const PatternSet& frequent_edges);

}  // namespace partminer

#endif  // PARTMINER_MINER_EXTENSIONS_H_
