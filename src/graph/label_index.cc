#include "graph/label_index.h"

#include <utility>

#include "obs/metrics.h"

namespace partminer {

uint64_t LabelIndex::TripleKey(Label a, Label elabel, Label b) {
  if (a > b) std::swap(a, b);
  constexpr uint64_t kMask = (uint64_t{1} << 21) - 1;
  return ((static_cast<uint64_t>(static_cast<uint32_t>(a)) & kMask) << 42) |
         ((static_cast<uint64_t>(static_cast<uint32_t>(elabel)) & kMask)
          << 21) |
         (static_cast<uint64_t>(static_cast<uint32_t>(b)) & kMask);
}

LabelIndex::LabelIndex(const GraphDatabase& db) : graph_count_(db.size()) {
  PM_METRIC_COUNTER("prune.index_builds")->Increment();
  for (int i = 0; i < db.size(); ++i) {
    const Graph& g = db.graph(i);
    for (VertexId v = 0; v < g.VertexCount(); ++v) {
      vertex_tids_[g.vertex_label(v)].Add(i);  // Add is idempotent.
    }
    for (VertexId v = 0; v < g.VertexCount(); ++v) {
      for (const EdgeEntry& e : g.adjacency(v)) {
        if (e.to < v) continue;  // Each undirected edge once.
        edge_tids_[TripleKey(g.vertex_label(v), e.label,
                             g.vertex_label(e.to))]
            .Add(i);
      }
    }
  }
}

TidSet LabelIndex::CandidatesFor(const Graph& pattern) const {
  PM_METRIC_COUNTER("prune.index_queries")->Increment();
  TidSet candidates;
  bool seeded = false;
  auto intersect = [&candidates, &seeded](const TidSet& tids) {
    if (!seeded) {
      candidates = tids;
      seeded = true;
    } else {
      candidates &= tids;
    }
    return !candidates.Empty();
  };

  for (VertexId v = 0; v < pattern.VertexCount(); ++v) {
    const auto it = vertex_tids_.find(pattern.vertex_label(v));
    if (it == vertex_tids_.end()) return TidSet();
    if (!intersect(it->second)) return TidSet();
  }
  for (VertexId v = 0; v < pattern.VertexCount(); ++v) {
    for (const EdgeEntry& e : pattern.adjacency(v)) {
      if (e.to < v) continue;
      const auto it = edge_tids_.find(
          TripleKey(pattern.vertex_label(v), e.label,
                    pattern.vertex_label(e.to)));
      if (it == edge_tids_.end()) return TidSet();
      if (!intersect(it->second)) return TidSet();
    }
  }
  if (!seeded) {
    // Empty pattern constrains nothing: every graph is a candidate.
    for (int i = 0; i < graph_count_; ++i) candidates.Add(i);
  }
  return candidates;
}

}  // namespace partminer
