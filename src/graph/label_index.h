#ifndef PARTMINER_GRAPH_LABEL_INDEX_H_
#define PARTMINER_GRAPH_LABEL_INDEX_H_

#include <cstdint>
#include <unordered_map>

#include "graph/graph.h"
#include "graph/tid_set.h"

namespace partminer {

/// Inverted label index of a graph database: vertex label → TidSet of the
/// graphs containing at least one vertex with that label, and normalized
/// edge triple (min endpoint label, edge label, max endpoint label) → TidSet
/// of the graphs containing at least one such edge. Built in one O(V+E)
/// sweep per database. Its one reader, AprioriMiner::Mine, builds it once
/// per call over the database it mines.
///
/// CandidatesFor(pattern) intersects the sets of every distinct pattern
/// label and edge triple. Any graph hosting an embedding necessarily
/// contains all of them, so the intersection is a certified *superset* of
/// the true TIDs — support counting runs the backtracking isomorphism test
/// only inside it and never visits a graph the index has ruled out. This is
/// the cheap label pre-filter before exact matching (cf. Peregrine's
/// pattern-aware pruning); it cannot change which patterns are found, only
/// how many hopeless hosts get scanned.
class LabelIndex {
 public:
  explicit LabelIndex(const GraphDatabase& db);

  /// Superset of the indices of graphs that can contain `pattern`.
  TidSet CandidatesFor(const Graph& pattern) const;

  /// Size of the database the index was built over.
  int graph_count() const { return graph_count_; }

 private:
  // Edge triple packed into three 21-bit fields. Labels ≥ 2^21 alias, which
  // merely unions unrelated TidSets — the candidate set stays a superset and
  // only the pruning power degrades.
  static uint64_t TripleKey(Label a, Label elabel, Label b);

  std::unordered_map<Label, TidSet> vertex_tids_;
  std::unordered_map<uint64_t, TidSet> edge_tids_;
  int graph_count_ = 0;
};

}  // namespace partminer

#endif  // PARTMINER_GRAPH_LABEL_INDEX_H_
