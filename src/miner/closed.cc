#include "miner/closed.h"

#include <algorithm>
#include <vector>

#include "graph/isomorphism.h"

namespace partminer {

namespace {

/// Patterns of `set` grouped by edge count, ascending; index k holds the
/// (k+1)-edge patterns.
std::vector<std::vector<const PatternInfo*>> ByLevel(const PatternSet& set) {
  std::vector<std::vector<const PatternInfo*>> levels;
  for (const PatternInfo& p : set.patterns()) {
    const size_t k = p.code.size();
    if (levels.size() < k) levels.resize(k);
    levels[k - 1].push_back(&p);
  }
  return levels;
}

/// True when `super` (one more edge) contains `sub`. `require_equal_support`
/// additionally demands equal supports (the closedness certificate).
bool Covers(const PatternInfo& super, const PatternInfo& sub,
            bool require_equal_support) {
  if (require_equal_support && super.support != sub.support) return false;
  // TID inclusion is a necessary condition and much cheaper than the
  // isomorphism check (TidSet::Includes).
  if (!sub.tids.Includes(super.tids)) return false;
  return ContainsSubgraph(super.code.ToGraph(), sub.code.ToGraph());
}

PatternSet Filter(const PatternSet& complete, bool closed) {
  const std::vector<std::vector<const PatternInfo*>> levels =
      ByLevel(complete);
  PatternSet out;
  for (size_t k = 0; k < levels.size(); ++k) {
    for (const PatternInfo* p : levels[k]) {
      bool covered = false;
      if (k + 1 < levels.size()) {
        for (const PatternInfo* super : levels[k + 1]) {
          if (Covers(*super, *p, /*require_equal_support=*/closed)) {
            covered = true;
            break;
          }
        }
      }
      if (!covered) out.Upsert(*p);
    }
  }
  return out;
}

}  // namespace

PatternSet ClosedPatterns(const PatternSet& complete) {
  return Filter(complete, /*closed=*/true);
}

PatternSet MaximalPatterns(const PatternSet& complete) {
  return Filter(complete, /*closed=*/false);
}

}  // namespace partminer
