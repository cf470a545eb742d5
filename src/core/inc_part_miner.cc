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

/// The delta-mining sweep of IncMergeJoin: a gSpan recursion over the
/// *updated graphs only*. Every encountered extension group resolves its
/// pre-update TID list from the cached pattern set (frequent patterns) or
/// the frontier (everything else ever enumerated; absent means zero
/// pre-update occurrences), so post-update supports come from set
/// arithmetic alone — no subgraph-isomorphism counting. Patterns that newly
/// cross the threshold are completed by a full-projection subtree grow
/// (rare) and written to `became_frequent` (IF) as they are emitted.
///
/// The sweep reaches every code through its prefix chain, so it carries the
/// newest cut over a code's proper prefixes down the recursion and each
/// frontier lookup checks liveness with one comparison (see Frontier).
class DeltaSweep {
 public:
  DeltaSweep(const GraphDatabase& db, const GraphDatabase& upd_db,
             const PatternSet& cached, Frontier& frontier,
             const TidSet& updated_set, int min_support, int max_edges,
             PatternSet* out, PatternSet* became_frequent,
             MergeJoinStats* stats)
      : db_(db),
        upd_db_(upd_db),
        cached_(cached),
        frontier_(frontier),
        updated_set_(updated_set),
        min_support_(min_support),
        max_edges_(max_edges),
        out_(out),
        became_frequent_(became_frequent),
        stats_(stats) {}

  void Run() {
    engine::ExtensionMap roots = engine::CollectRootExtensions(upd_db_);
    DfsCode code;
    for (const auto& [tuple, projected] : roots) {
      code.Append(tuple);
      Handle(&code, projected, /*prefix_cut=*/0);
      code.PopBack();
    }
  }

 private:
  /// Processes one extension group reached through the updated graphs;
  /// `prefix_cut` is the frontier's PrefixCutEpoch(*code). Its exact post-
  /// update TIDs are (old \ updated) ∪ hits-in-updated, where the pre-update
  /// set comes from the cache (stripped here) or the frontier (stripped
  /// lazily by its lookup); absent or dead means zero pre-update occurrences.
  void Handle(DfsCode* code, const engine::Projected& projected,
              Frontier::Epoch prefix_cut) {
    ++stats_->candidates_generated;
    TidSet tids;
    const PatternInfo* cached = cached_.Find(*code);
    if (cached != nullptr) {
      tids = cached->tids;
      tids -= updated_set_;
    } else {
      frontier_.Lookup(*code, prefix_cut, &tids);
    }
    // Known verdicts, no test: a cached code is minimal. A code outside the
    // cache that meets the threshold outside the updated graphs alone was
    // frequent before the round, yet the exact cache lacks it: it is not
    // minimal.
    const bool known_non_minimal =
        cached == nullptr && tids.Count() >= min_support_;
    tids |= engine::TidSetOf(projected);
    const int support = tids.Count();

    if (support < min_support_) {
      // A cached pattern landing here was parked by Pass 1 and is cut
      // after the sweep.
      frontier_.Put(*code, std::move(tids));
      return;  // Apriori: nothing frequent extends an infrequent pattern.
    }
    if (known_non_minimal ||
        (cached == nullptr && !IsMinimalDfsCode(*code))) {
      // Frequent under a non-minimal code: keep the TIDs for future rounds;
      // the minimal twin carries the pattern.
      frontier_.Put(*code, std::move(tids));
      return;
    }
    if (cached == nullptr) {
      // Newly frequent (IF direction): its subtree was never enumerated
      // before, so recover it with a full projection over the database
      // (exact TIDs are in hand). Everything the grow emits is newly
      // frequent too: it extends a code that was infrequent.
      ++stats_->spanning_found;
      ++stats_->candidates_counted;
      const int first = out_->size();
      FullGrow(code, tids.ToVector());
      for (int i = first; i < out_->size(); ++i) {
        became_frequent_->Upsert(out_->patterns()[i]);
      }
      return;
    }

    // Still-frequent cached pattern: exact info by arithmetic; keep sweeping
    // its extensions inside the updated graphs. Pass 1 may have parked it in
    // the frontier (its stripped support fell short); it is frequent again.
    ++stats_->candidates_skipped_known;
    frontier_.Erase(*code);
    PatternInfo info;
    info.code = *code;
    info.support = support;
    info.tids = std::move(tids);
    out_->Upsert(std::move(info));

    if (static_cast<int>(code->size()) >= max_edges_) return;
    const Frontier::Epoch child_cut =
        std::max(prefix_cut, frontier_.CutEpoch(*code));
    engine::ExtensionMap extensions = engine::CollectExtensions(
        upd_db_, *code, projected, /*enable_order_pruning=*/true);
    for (const auto& [tuple, child_projected] : extensions) {
      code->Append(tuple);
      Handle(code, child_projected, child_cut);
      code->PopBack();
    }
  }

  /// Standard full-projection grow for a newly frequent pattern: emits its
  /// whole frequent subtree with exact info and records the subtree's
  /// frontier at the current epoch.
  void FullGrow(DfsCode* code, const std::vector<int>& tids) {
    std::deque<engine::Embedding> arena;
    const engine::Projected projected =
        engine::ProjectCode(*code, db_, tids, &arena);
    MinerOptions mo;
    mo.min_support = min_support_;
    mo.max_edges = max_edges_;
    mo.capture_frontier = &frontier_;
    engine::GrowSubtree(db_, mo, code, projected, out_);
  }

  const GraphDatabase& db_;
  const GraphDatabase& upd_db_;
  const PatternSet& cached_;
  Frontier& frontier_;
  const TidSet& updated_set_;
  const int min_support_;
  const int max_edges_;
  PatternSet* out_;
  PatternSet* became_frequent_;
  MergeJoinStats* stats_;
};

}  // namespace

IncPartMinerResult IncPartMiner::Update(PartMiner* state,
                                        const GraphDatabase& new_db,
                                        const UpdateLog& log) {
  PM_CHECK(state->mined()) << "IncPartMiner requires a completed Mine()";
  PM_TRACE_SPAN("inc_part_miner.update",
                {{"graphs", new_db.size()},
                 {"updated_graphs", log.updated_graphs.size()}});
  PM_METRIC_COUNTER("partminer.update_runs")->Increment();
  IncPartMinerResult result;
  const PatternSet& cached = state->patterns();
  NodeFrontier& frontier = state->mutable_root_frontier();
  const int min_support = state->root_support();
  const int max_edges = state->options().max_edges;
  MergeJoinStats* s = &result.merge_stats;
  s->cached_patterns += cached.size();

  std::vector<int> updated = log.updated_graphs;
  std::sort(updated.begin(), updated.end());
  updated.erase(std::unique(updated.begin(), updated.end()), updated.end());

  // The incremental merge at the root (IncMergeJoin, Figure 12 lines
  // 11-12), over the root's own cached set and frontier. The root's
  // recombined database is the database itself. Each path writes IF (with
  // the new info) and FI (with the old) where it finds them.
  Stopwatch merge_watch;
  {
    PM_TRACE_SPAN("inc_merge_root", {{"candidates", cached.size()}});
    // Cost-model switch: when a large share of the database changed (or the
    // frontier cache is invalid), the exact re-sweep beats the delta
    // machinery. Both are exact. The capture cost is paid only when a future
    // small-update round could use the cache: a small-update round with an
    // invalid cache re-captures; a large-update round skips the capture and
    // invalidates.
    const auto small_share = [&](size_t graphs) {
      return new_db.size() == 0 ||
             static_cast<double>(graphs) / new_db.size() <=
                 state->options().inc_delta_sweep_max_fraction;
    };
    const bool small_update = small_share(updated.size());
    if (updated.empty()) {
      // Nothing changed: the cached set is already exact.
      result.patterns = cached;
    } else if (!small_update || !frontier.valid) {
      frontier.map.Clear();
      frontier.valid = small_update;
      result.patterns =
          RootSweep(new_db, min_support, max_edges,
                    small_update ? &frontier.map : nullptr, &cached, s);
      // Transitions by set difference: the sweep already paid O(result).
      for (const PatternInfo& p : result.patterns.patterns()) {
        if (!cached.Contains(p.code)) result.if_.Upsert(p);
      }
      for (const PatternInfo& p : cached.patterns()) {
        if (!result.patterns.Contains(p.code)) result.fi.Upsert(p);
      }
      s->spanning_found += result.if_.size();
    } else {
      // Open this round's frontier epoch. Strips are lazy; once the graphs
      // updated since the last compaction pass the same share that sends a
      // round to the re-sweep, one compaction pays the whole-frontier cost.
      Frontier& f = frontier.map;
      f.BeginRound(updated);
      if (!small_share(f.PendingGraphs())) {
        PM_TRACE_SPAN("frontier_compact",
                      {{"entries", f.size()},
                       {"pending_graphs", f.PendingGraphs()}});
        Stopwatch compact_watch;
        f.Compact();
        PM_METRIC_COUNTER("partminer.update.frontier_compactions")->Increment();
        PM_METRIC_HISTOGRAM("partminer.update.frontier_compact_ms")
            ->Observe(compact_watch.ElapsedMillis());
      }

      // Pass 1 — pure set arithmetic for every cached pattern: containment in
      // non-updated graphs is unchanged, so (old tids \ updated) is a
      // certified lower bound; patterns the sweep reaches below are
      // overwritten with their full post-update info (which can only add
      // updated-graph hits). A pattern whose stripped support falls short is
      // parked in the frontier: the sweep never reaches it if it lost every
      // occurrence in the updated graphs (only a relabel can do that), and a
      // later round must still find its TIDs. Only parked patterns can end up
      // frequent -> infrequent.
      const TidSet updated_set = TidSet::FromVector(updated);
      std::vector<const PatternInfo*> parked;
      for (const PatternInfo& p : cached.patterns()) {
        if (static_cast<int>(p.code.size()) > max_edges) {
          result.fi.Upsert(p);
          continue;
        }
        ++s->delta_recounts;
        PatternInfo q;
        q.code = p.code;
        q.tids = p.tids;
        q.tids -= updated_set;
        q.support = q.tids.Count();
        if (q.support >= min_support) {
          result.patterns.Upsert(std::move(q));
        } else {
          f.Put(q.code, std::move(q.tids));
          parked.push_back(&p);
        }
      }

      // Pass 2 — the frontier-backed delta sweep over the updated graphs. It
      // refreshes the frontier entries it reaches and re-frequents the parked
      // patterns it reaches.
      GraphDatabase upd_db;
      size_t u = 0;
      for (int i = 0; i < new_db.size(); ++i) {
        if (u < updated.size() && updated[u] == i) {
          upd_db.Add(new_db.graph(i), new_db.gid(i));
          ++u;
        } else {
          upd_db.Add(Graph(), new_db.gid(i));
        }
      }
      DeltaSweep(new_db, upd_db, cached, f, updated_set, min_support,
                 max_edges, &result.patterns, &result.if_, s)
          .Run();

      // Parked patterns the sweep did not make frequent again are the FI
      // transitions. Each cuts its frontier subtree: those entries were
      // derived through occurrences of a pattern that dropped out, and the
      // subtree grow re-derives them if it becomes frequent again. Cutting
      // every FI pattern, reached or not, keeps every live entry under a
      // chain of current patterns, where the sweep keeps it exact.
      for (const PatternInfo* p : parked) {
        if (result.patterns.Contains(p->code)) continue;
        f.Cut(p->code);
        result.fi.Upsert(*p);
      }
    }
  }
  result.merge_seconds = merge_watch.ElapsedSeconds();
  PM_METRIC_HISTOGRAM("partminer.phase.merge_ms")
      ->Observe(result.merge_seconds * 1e3);
  result.merge_stats.PublishToRegistry();

  result.uf = result.patterns.size() - result.if_.size();
  state->mutable_patterns() = result.patterns;
  return result;
}

}  // namespace partminer
