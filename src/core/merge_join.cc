#include "core/merge_join.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "common/timing.h"
#include "graph/canonical.h"
#include "miner/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace partminer {

void MergeJoinStats::Accumulate(const MergeJoinStats& other) {
  inherited_patterns += other.inherited_patterns;
  cached_patterns += other.cached_patterns;
  delta_recounts += other.delta_recounts;
  candidates_generated += other.candidates_generated;
  candidates_counted += other.candidates_counted;
  candidates_skipped_known += other.candidates_skipped_known;
  spanning_found += other.spanning_found;
}

void MergeJoinStats::PublishToRegistry() const {
  PM_METRIC_COUNTER("merge.inherited_patterns")->Add(inherited_patterns);
  PM_METRIC_COUNTER("merge.cached_patterns")->Add(cached_patterns);
  PM_METRIC_COUNTER("merge.delta_recounts")->Add(delta_recounts);
  PM_METRIC_COUNTER("merge.candidates_generated")->Add(candidates_generated);
  PM_METRIC_COUNTER("merge.candidates_counted")->Add(candidates_counted);
  PM_METRIC_COUNTER("merge.candidates_skipped_known")
      ->Add(candidates_skipped_known);
  PM_METRIC_COUNTER("merge.spanning_found")->Add(spanning_found);
}

namespace {

/// The exact sweep both operators fall back on: a gSpan run over `db` at
/// the merge threshold. With `frontier`, its map is replaced and marked
/// valid iff `capture`, in which case the sweep captures into it. Every
/// emitted pattern counts as a counted candidate; with `known`, those it
/// does not hold count as spanning (newly found) patterns, and the codes it
/// holds skip the minimality test: an exact pattern set holds only minimal
/// codes.
PatternSet ExactSweep(const GraphDatabase& db, const MergeJoinOptions& options,
                      NodeFrontier* frontier, bool capture,
                      const PatternSet* known, MergeJoinStats* s) {
  MinerOptions mo;
  mo.min_support = options.min_support;
  mo.max_edges = options.max_edges;
  if (frontier != nullptr) {
    frontier->map.Clear();
    frontier->valid = capture;
    if (capture) mo.capture_frontier = &frontier->map;
  }
  engine::MinimalityCheck is_minimal;
  if (known != nullptr) {
    is_minimal = [known](const DfsCode& code, int /*rank*/) {
      return known->Contains(code) || IsMinimalDfsCode(code);
    };
  }
  PatternSet out =
      engine::GrowFromRoots(db, mo, /*rank=*/nullptr, is_minimal);
  s->candidates_counted += out.size();
  if (known != nullptr) {
    for (const PatternInfo& p : out.patterns()) {
      if (!known->Contains(p.code)) ++s->spanning_found;
    }
  }
  return out;
}

}  // namespace

PatternSet MergeJoin(const GraphDatabase& db, const MergeJoinOptions& options,
                     MergeJoinStats* stats, NodeFrontier* frontier_out) {
  // Per-call deltas accumulate locally, reach the registry once at the end,
  // and fold into the caller's struct (keeping the existing struct API).
  MergeJoinStats local_stats;
  // Exact root recovery (see the header comment for why this is the
  // recovery operator), capturing the frontier for the incremental path.
  PatternSet out = ExactSweep(db, options, frontier_out, /*capture=*/true,
                              /*known=*/nullptr, &local_stats);
  local_stats.PublishToRegistry();
  if (stats != nullptr) stats->Accumulate(local_stats);
  return out;
}

namespace {

/// The delta-mining sweep behind IncMergeJoin: a gSpan recursion over the
/// *updated graphs only*. Every encountered extension group resolves its
/// pre-update TID list from the node's cache (frequent patterns) or its
/// frontier (everything else ever enumerated; absent means zero pre-update
/// occurrences), so post-update supports come from set arithmetic alone —
/// no subgraph-isomorphism counting. Patterns that newly cross the
/// threshold are completed by a full-projection subtree grow (rare).
///
/// The sweep reaches every code through its prefix chain, so it carries the
/// newest cut over a code's proper prefixes down the recursion and each
/// frontier lookup checks liveness with one comparison (see Frontier).
class DeltaSweep {
 public:
  DeltaSweep(const GraphDatabase& node_db, const GraphDatabase& upd_db,
             const PatternSet& cached, Frontier& frontier,
             TidSet updated_set, const MergeJoinOptions& options,
             PatternSet* out, MergeJoinStats* stats,
             std::vector<DfsCode>* became_frequent)
      : node_db_(node_db),
        upd_db_(upd_db),
        cached_(cached),
        frontier_(frontier),
        updated_set_(std::move(updated_set)),
        options_(options),
        out_(out),
        stats_(stats),
        became_frequent_(became_frequent) {}

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
  /// set comes from the node cache (stripped here) or the frontier (stripped
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
        cached == nullptr && tids.Count() >= options_.min_support;
    tids |= engine::TidSetOf(projected);
    const int support = tids.Count();

    if (support < options_.min_support) {
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
      // before, so recover it with a full projection over the node database
      // (exact TIDs are in hand). Everything the grow emits is newly
      // frequent too: it extends a code that was infrequent.
      ++stats_->spanning_found;
      ++stats_->candidates_counted;
      const int first = out_->size();
      FullGrow(code, tids.ToVector());
      for (int i = first; i < out_->size(); ++i) {
        became_frequent_->push_back(out_->patterns()[i].code);
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

    if (static_cast<int>(code->size()) >= options_.max_edges) return;
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
        engine::ProjectCode(*code, node_db_, tids, &arena);
    MinerOptions mo;
    mo.min_support = options_.min_support;
    mo.max_edges = options_.max_edges;
    mo.capture_frontier = &frontier_;
    engine::GrowSubtree(node_db_, mo, code, projected, out_);
  }

  const GraphDatabase& node_db_;
  const GraphDatabase& upd_db_;
  const PatternSet& cached_;
  Frontier& frontier_;
  const TidSet updated_set_;
  const MergeJoinOptions& options_;
  PatternSet* out_;
  MergeJoinStats* stats_;
  std::vector<DfsCode>* became_frequent_;
};

}  // namespace

PatternSet IncMergeJoin(const GraphDatabase& node_db, const PatternSet& cached,
                        const std::vector<int>& updated_graphs,
                        const MergeJoinOptions& options,
                        MergeJoinStats* stats, NodeFrontier* frontier,
                        MergeTransitions* transitions) {
  MergeJoinStats local_stats;
  MergeJoinStats* s = &local_stats;
  s->cached_patterns += cached.size();
  // Publish the local deltas to the registry and the caller's struct on
  // every return path below.
  struct Publisher {
    MergeJoinStats* local;
    MergeJoinStats* caller;
    ~Publisher() {
      local->PublishToRegistry();
      if (caller != nullptr) caller->Accumulate(*local);
    }
  } publisher{&local_stats, stats};
  MergeTransitions local_transitions;
  MergeTransitions* t =
      transitions != nullptr ? transitions : &local_transitions;
  *t = MergeTransitions();

  std::vector<int> updated = updated_graphs;
  std::sort(updated.begin(), updated.end());
  updated.erase(std::unique(updated.begin(), updated.end()), updated.end());

  if (updated.empty()) {
    // Nothing changed: the cached set is already exact.
    return cached;
  }

  // Cost-model switch: when a large share of the node changed (or the
  // frontier cache is invalid), the exact re-sweep beats the delta
  // machinery. Both are exact. The capture cost is paid only when a future
  // small-update round could use the cache: a small-update round with an
  // invalid cache re-captures; a large-update round skips the capture and
  // invalidates.
  const auto small_share = [&](size_t graphs) {
    return node_db.size() == 0 ||
           static_cast<double>(graphs) / node_db.size() <=
               options.delta_sweep_max_fraction;
  };
  const bool small_update = small_share(updated.size());
  if (!small_update || frontier == nullptr || !frontier->valid) {
    PatternSet out = ExactSweep(node_db, options, frontier,
                                /*capture=*/small_update, &cached, s);
    // Transitions by set difference: the sweep already paid O(result).
    for (const PatternInfo& p : out.patterns()) {
      if (!cached.Contains(p.code)) t->became_frequent.push_back(p.code);
    }
    for (const PatternInfo& p : cached.patterns()) {
      if (!out.Contains(p.code)) t->became_infrequent.push_back(p.code);
    }
    return out;
  }

  // Open this round's frontier epoch. Strips are lazy; once the graphs
  // updated since the last compaction pass the same share that sends a
  // round to the re-sweep, one compaction pays the whole-frontier cost.
  Frontier& f = frontier->map;
  f.BeginRound(updated);
  if (!small_share(f.PendingGraphs())) {
    PM_TRACE_SPAN("frontier_compact", {{"entries", f.size()},
                                       {"pending_graphs", f.PendingGraphs()}});
    Stopwatch compact_watch;
    f.Compact();
    PM_METRIC_COUNTER("partminer.update.frontier_compactions")->Increment();
    PM_METRIC_HISTOGRAM("partminer.update.frontier_compact_ms")
        ->Observe(compact_watch.ElapsedMillis());
  }

  // Pass 1 — pure set arithmetic for every cached pattern: containment in
  // non-updated graphs is unchanged, so (old tids \ updated) is a certified
  // lower bound; patterns the sweep reaches below are overwritten with their
  // full post-update info (which can only add updated-graph hits). A pattern
  // whose stripped support falls short is parked in the frontier: the sweep
  // never reaches it if it lost every occurrence in the updated graphs (only
  // a relabel can do that), and a later round must still find its TIDs.
  // Only parked patterns can end up frequent -> infrequent.
  const TidSet updated_set = TidSet::FromVector(updated);
  PatternSet out;
  std::vector<DfsCode> parked;
  for (const PatternInfo& p : cached.patterns()) {
    if (static_cast<int>(p.code.size()) > options.max_edges) {
      t->became_infrequent.push_back(p.code);
      continue;
    }
    ++s->delta_recounts;
    PatternInfo q;
    q.code = p.code;
    q.tids = p.tids;
    q.tids -= updated_set;
    q.support = q.tids.Count();
    if (q.support >= options.min_support) {
      out.Upsert(std::move(q));
    } else {
      f.Put(q.code, std::move(q.tids));
      parked.push_back(p.code);
    }
  }

  // Pass 2 — the frontier-backed delta sweep over the updated graphs. It
  // refreshes the frontier entries it reaches and re-frequents the parked
  // patterns it reaches.
  GraphDatabase upd_db;
  size_t u = 0;
  for (int i = 0; i < node_db.size(); ++i) {
    if (u < updated.size() && updated[u] == i) {
      upd_db.Add(node_db.graph(i), node_db.gid(i));
      ++u;
    } else {
      upd_db.Add(Graph(), node_db.gid(i));
    }
  }
  DeltaSweep sweep(node_db, upd_db, cached, f, updated_set, options, &out, s,
                   &t->became_frequent);
  sweep.Run();

  // Parked patterns the sweep did not make frequent again are the FI
  // transitions. Each cuts its frontier subtree: those entries were derived
  // through occurrences of a pattern that dropped out, and the subtree grow
  // re-derives them if it becomes frequent again. Cutting every FI pattern,
  // reached or not, keeps every live entry under a chain of current
  // patterns, where the sweep keeps it exact.
  for (DfsCode& code : parked) {
    if (out.Contains(code)) continue;
    f.Cut(code);
    t->became_infrequent.push_back(std::move(code));
  }
  return out;
}

}  // namespace partminer
