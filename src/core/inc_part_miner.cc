#include "core/inc_part_miner.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "common/logging.h"
#include "common/timing.h"
#include "graph/canonical.h"
#include "miner/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace partminer {

double IncPartMinerResult::AggregateSeconds() const {
  return merge_seconds + verify_seconds;
}

namespace {

/// Per cached pattern, by its position in the set: the support it had
/// before the round if Pass 1 stripped it, else kUntouched; kReached once
/// the sweep has rewritten it.
constexpr int kUntouched = -1;
constexpr int kReached = -2;

/// A round compacts the frontier once the graphs updated since the last
/// compaction exceed this share of the database: each whole-frontier pass
/// then pays for at least half a database of lazy strips.
constexpr double kCompactPendingShare = 0.5;

/// The delta-mining sweep of IncMergeJoin: a gSpan recursion over the live
/// database whose root scan lists the *updated graphs only*, so every
/// embedding it extends lies in an updated graph. Every encountered
/// extension group resolves its pre-update TID list from the pattern set
/// (frequent patterns, already stripped of the updated graphs by Pass 1) or
/// the frontier (everything else ever enumerated; absent means zero
/// pre-update occurrences), so post-update supports come from set
/// arithmetic alone — no subgraph-isomorphism counting. The sweep writes
/// into the pattern set in place: patterns that newly cross the threshold
/// are completed by a full-projection subtree grow (rare) and written to
/// `became_frequent` (IF) as they are emitted; a cached pattern whose
/// support moved is written to `changed`.
///
/// The sweep reaches every code through its prefix chain, so it carries the
/// code's frontier node and the newest cut over its proper prefixes down the
/// recursion: each frontier lookup is one probe, and liveness one comparison
/// (see Frontier).
class DeltaSweep {
 public:
  DeltaSweep(const GraphDatabase& db, PatternSet& patterns,
             std::vector<int>& before, Frontier& frontier, int min_support,
             int max_edges, PatternSet* became_frequent,
             std::vector<DfsCode>* changed, MergeJoinStats* stats)
      : db_(db),
        patterns_(patterns),
        before_(before),
        frontier_(frontier),
        min_support_(min_support),
        max_edges_(max_edges),
        became_frequent_(became_frequent),
        changed_(changed),
        stats_(stats) {}

  /// Sweeps from the roots found in the graphs listed (ascending) in
  /// `updated`.
  void Run(const std::vector<int>& updated) {
    engine::ExtensionMap roots = engine::CollectRootExtensions(db_, updated);
    DfsCode code;
    for (const auto& [tuple, projected] : roots) {
      code.Append(tuple);
      Handle(&code, projected, Frontier::kRoot, /*prefix_cut=*/0);
      code.PopBack();
    }
  }

 private:
  /// Processes one extension group reached through the updated graphs,
  /// whose code's parent is frontier node `parent`; `prefix_cut` is the
  /// newest cut over the code's proper prefixes. Its exact post-update TIDs
  /// are (old \ updated) ∪ hits-in-updated, where the pre-update set comes
  /// from the pattern set (stripped by Pass 1) or the frontier (stripped
  /// lazily by its lookup); absent or dead means zero pre-update
  /// occurrences.
  void Handle(DfsCode* code, const engine::Projected& projected,
              Frontier::NodeId parent, Frontier::Epoch prefix_cut) {
    ++stats_->candidates_generated;
    TidSet tids;
    const int at = patterns_.IndexOf(*code);
    const Frontier::NodeId node = frontier_.Node(parent, code->back());
    if (at >= 0) {
      tids = patterns_.patterns()[at].tids;
    } else {
      frontier_.Lookup(node, prefix_cut, &tids);
    }
    // Known verdicts, no test: a cached code is minimal, parked or not. A
    // code outside the cache that meets the threshold outside the updated
    // graphs alone was frequent before the round, yet the exact cache lacks
    // it: it is not minimal.
    const bool known = at >= 0;
    const bool known_non_minimal = !known && tids.Count() >= min_support_;
    tids |= engine::TidSetOf(projected);
    const int support = tids.Count();

    if (support < min_support_) {
      // Of the cached patterns only a parked one lands here; it is cut
      // after the sweep.
      frontier_.Put(node, std::move(tids));
      return;  // Apriori: nothing frequent extends an infrequent pattern.
    }
    if (known_non_minimal || (!known && !IsMinimalDfsCode(*code))) {
      // Frequent under a non-minimal code: keep the TIDs for future rounds;
      // the minimal twin carries the pattern.
      frontier_.Put(node, std::move(tids));
      return;
    }
    if (!known) {
      // Newly frequent (IF direction): its subtree was never enumerated
      // before, so recover it with a full projection over the database
      // (exact TIDs are in hand). Everything the grow emits is newly
      // frequent too: it extends a code that was infrequent.
      ++stats_->spanning_found;
      ++stats_->candidates_counted;
      const int first = patterns_.size();
      FullGrow(code, node, tids.ToVector());
      for (int i = first; i < patterns_.size(); ++i) {
        became_frequent_->Upsert(patterns_.patterns()[i]);
      }
      return;
    }

    // Still-frequent cached pattern: exact info by arithmetic; keep sweeping
    // its extensions inside the updated graphs. Pass 1 may have parked it
    // (its stripped support fell short); it is frequent again.
    ++stats_->candidates_skipped_known;
    frontier_.Erase(node);
    PatternInfo& pattern = patterns_.mutable_pattern(at);
    const int old = before_[at] == kUntouched ? pattern.support : before_[at];
    before_[at] = kReached;
    if (support != old) changed_->push_back(*code);
    pattern.support = support;
    pattern.tids = std::move(tids);

    if (static_cast<int>(code->size()) >= max_edges_) return;
    const Frontier::Epoch child_cut =
        std::max(prefix_cut, frontier_.CutEpoch(node));
    engine::ExtensionMap extensions = engine::CollectExtensions(
        db_, *code, projected, /*enable_order_pruning=*/true);
    for (const auto& [tuple, child_projected] : extensions) {
      code->Append(tuple);
      Handle(code, child_projected, node, child_cut);
      code->PopBack();
    }
  }

  /// Standard full-projection grow for a newly frequent pattern at frontier
  /// node `node`: emits its whole frequent subtree with exact info into the
  /// pattern set and records the subtree's frontier at the current epoch.
  void FullGrow(DfsCode* code, Frontier::NodeId node,
                const std::vector<int>& tids) {
    std::deque<engine::Embedding> arena;
    const engine::Projected projected =
        engine::ProjectCode(*code, db_, tids, &arena);
    MinerOptions mo;
    mo.min_support = min_support_;
    mo.max_edges = max_edges_;
    mo.capture_frontier = &frontier_;
    engine::GrowSubtree(db_, mo, code, projected, node, &patterns_);
  }

  const GraphDatabase& db_;
  PatternSet& patterns_;
  std::vector<int>& before_;
  Frontier& frontier_;
  const int min_support_;
  const int max_edges_;
  PatternSet* became_frequent_;
  std::vector<DfsCode>* changed_;
  MergeJoinStats* stats_;
};

}  // namespace

IncPartMinerResult IncPartMiner::ApplyRound(PartMiner* state,
                                            const GraphDatabase& new_db,
                                            const UpdateLog& log) {
  PM_CHECK(state->mined()) << "IncPartMiner requires a completed Mine()";
  PM_TRACE_SPAN("inc_part_miner.update",
                {{"graphs", new_db.size()},
                 {"updated_graphs", log.updated_graphs.size()}});
  PM_METRIC_COUNTER("partminer.update_runs")->Increment();
  IncPartMinerResult result;
  PatternSet& patterns = state->mutable_patterns();
  Frontier& f = state->mutable_root_frontier().map;
  const int min_support = state->root_support();
  const int max_edges = state->options().max_edges;
  MergeJoinStats* s = &result.merge_stats;
  s->cached_patterns += patterns.size();

  std::vector<int> updated = log.updated_graphs;
  std::sort(updated.begin(), updated.end());
  updated.erase(std::unique(updated.begin(), updated.end()), updated.end());

  // The incremental merge at the root (IncMergeJoin, Figure 12 lines
  // 11-12), over the root's own cached set and frontier, both edited in
  // place. The root's recombined database is the database itself. The
  // round writes IF (with the new info), FI (with the old) and the changed
  // supports where it finds them. A round that updates no graph changes
  // nothing.
  Stopwatch merge_watch;
  if (!updated.empty()) {
    PM_TRACE_SPAN("inc_merge_root", {{"candidates", patterns.size()}});
    // Open this round's frontier epoch. Strips are lazy; once the graphs
    // updated since the last compaction exceed kCompactPendingShare of the
    // database, one compaction pays the whole-frontier cost.
    f.BeginRound(updated);
    if (f.PendingGraphs() > kCompactPendingShare * new_db.size()) {
      PM_TRACE_SPAN("frontier_compact",
                    {{"entries", f.size()},
                     {"pending_graphs", f.PendingGraphs()}});
      Stopwatch compact_watch;
      f.Compact();
      PM_METRIC_COUNTER("partminer.update.frontier_compactions")->Increment();
      PM_METRIC_HISTOGRAM("partminer.update.frontier_compact_ms")
          ->Observe(compact_watch.ElapsedMillis());
    }

    // Pass 1 — pure set arithmetic, in place: containment in non-updated
    // graphs is unchanged, so (old tids \ updated) is a certified lower
    // bound, and a pattern whose TIDs miss the updated graphs keeps its
    // info unless the sweep below adds hits. A pattern whose stripped
    // support falls short is parked: its stripped TIDs also go to the
    // frontier and its pre-round info is kept aside. The sweep never
    // reaches it if it lost every occurrence in the updated graphs (only
    // a relabel can do that), and a later round must still find its TIDs.
    // Only parked patterns can end up frequent -> infrequent.
    const TidSet updated_set = TidSet::FromVector(updated);
    const int cached_count = patterns.size();
    std::vector<int> before(cached_count, kUntouched);
    struct Parked {
      PatternInfo before;  // The pattern's pre-round info.
      Frontier::NodeId node;
    };
    std::vector<Parked> parked;
    for (int i = 0; i < cached_count; ++i) {
      PatternInfo& p = patterns.mutable_pattern(i);
      ++s->delta_recounts;
      const int lost = p.tids.CountCommon(updated_set);
      if (lost == 0) continue;
      const int support = p.support - lost;  // A support is its TID count.
      if (support < min_support) parked.push_back({p, Frontier::kNone});
      before[i] = p.support;
      p.support = support;
      p.tids -= updated_set;
      if (support < min_support) parked.back().node = f.Put(p.code, p.tids);
    }

    // Pass 2 — the frontier-backed delta sweep over the live database,
    // rooted in the updated graphs. It refreshes the frontier entries it
    // reaches and re-frequents the parked patterns it reaches.
    DeltaSweep(new_db, patterns, before, f, min_support, max_edges,
               &result.if_, &result.changed, s)
        .Run(updated);

    // Stripped patterns the sweep did not reach hold their stripped info,
    // which lost at least one TID.
    for (int i = 0; i < cached_count; ++i) {
      const PatternInfo& p = patterns.patterns()[i];
      if (before[i] >= 0 && p.support >= min_support) {
        result.changed.push_back(p.code);
      }
    }
    // Parked patterns the sweep did not make frequent again are the FI
    // transitions: they leave the set. Each cuts its frontier subtree:
    // those entries were derived through occurrences of a pattern that
    // dropped out, and the subtree grow re-derives them if it becomes
    // frequent again. Cutting every FI pattern, reached or not, keeps
    // every live entry under a chain of current patterns, where the sweep
    // keeps it exact.
    for (Parked& p : parked) {
      if (patterns.Find(p.before.code)->support >= min_support) continue;
      patterns.Erase(p.before.code);
      f.Cut(p.node);
      result.fi.Upsert(std::move(p.before));
    }
  }
  result.merge_seconds = merge_watch.ElapsedSeconds();
  PM_METRIC_HISTOGRAM("partminer.phase.merge_ms")
      ->Observe(result.merge_seconds * 1e3);
  result.merge_stats.PublishToRegistry();

  result.uf = patterns.size() - result.if_.size();
  return result;
}

IncPartMinerResult IncPartMiner::Update(PartMiner* state,
                                        const GraphDatabase& new_db,
                                        const UpdateLog& log) {
  IncPartMinerResult result = ApplyRound(state, new_db, log);
  result.patterns = state->patterns();
  return result;
}

}  // namespace partminer
