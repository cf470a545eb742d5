#include "miner/apriori.h"

#include <vector>

#include "graph/isomorphism.h"
#include "graph/label_index.h"
#include "miner/extensions.h"

namespace partminer {

PatternSet AprioriMiner::Mine(const GraphDatabase& db,
                              const MinerOptions& options) {
  stats_ = AprioriStats();

  // Level 1: one scan; it doubles as the extension vocabulary.
  const PatternSet vocabulary = FrequentSingleEdges(db, options.min_support);
  PatternSet out = vocabulary;
  stats_.frequent_found += out.size();

  const LabelIndex index(db);

  // Level-wise generate-and-count.
  for (int k = 1; k < options.max_edges; ++k) {
    // Snapshot the level (Upserts below may reallocate).
    std::vector<std::pair<DfsCode, TidSet>> level;
    for (const PatternInfo* p : out.WithEdgeCount(k)) {
      level.emplace_back(p->code, p->tids);
    }
    if (level.empty()) break;

    bool found_any = false;
    for (const auto& [base, base_tids] : level) {
      for (const DfsCode& candidate : RightmostExtensions(base, vocabulary)) {
        ++stats_.candidates_generated;
        if (out.Contains(candidate)) continue;  // Reached from another base.
        // Count within the generating parent's TID set (any occurrence of
        // the candidate contains an occurrence of the parent), narrowed
        // further by the label index.
        ++stats_.candidates_counted;
        const Graph pattern = candidate.ToGraph();
        const SubgraphMatcher matcher(pattern);
        TidSet among = base_tids;
        among &= index.CandidatesFor(pattern);
        PatternInfo info;
        info.support = matcher.CountSupportAmong(db, among, &info.tids);
        if (info.support < options.min_support) continue;
        info.code = candidate;
        out.Upsert(std::move(info));
        ++stats_.frequent_found;
        found_any = true;
      }
    }
    if (!found_any) break;
  }
  return out;
}

}  // namespace partminer
