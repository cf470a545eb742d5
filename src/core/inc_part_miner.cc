#include "core/inc_part_miner.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timing.h"
#include "core/merge_join.h"
#include "core/verify.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace partminer {

double IncPartMinerResult::UnitSecondsSum() const {
  double total = 0;
  for (const double t : unit_mining_seconds) total += t;
  return total;
}

double IncPartMinerResult::UnitSecondsMax() const {
  double max_t = 0;
  for (const double t : unit_mining_seconds) max_t = std::max(max_t, t);
  return max_t;
}

double IncPartMinerResult::AggregateSeconds() const {
  return route_seconds + UnitSecondsSum() + merge_seconds + verify_seconds;
}

double IncPartMinerResult::ParallelSeconds() const {
  return route_seconds + UnitSecondsMax() + merge_seconds + verify_seconds;
}

IncPartMinerResult IncPartMiner::Update(PartMiner* state,
                                        const GraphDatabase& new_db,
                                        const UpdateLog& log) {
  PM_CHECK(state->mined()) << "IncPartMiner requires a completed Mine()";
  PM_TRACE_SPAN("inc_part_miner.update",
                {{"graphs", new_db.size()},
                 {"updated_graphs", log.updated_graphs.size()}});
  PM_METRIC_COUNTER("partminer.update_runs")->Increment();
  IncPartMinerResult result;

  PartitionedDatabase& part = state->mutable_partitioned();
  const std::vector<MergeTreeNode>& tree = part.tree();
  std::vector<PatternSet>& node_patterns = state->mutable_node_patterns();
  std::vector<NodeFrontier>& node_frontiers = state->mutable_node_frontiers();
  const PatternSet old_verified = state->verified();
  const int root_support = state->ResolveSupport(new_db.size());

  // Route the updates: extend assignments to new vertices, then compute the
  // setword of units that must be re-mined (Figure 12 input `set`).
  Stopwatch route_watch;
  {
    PM_TRACE_SPAN("route", {{"touched_vertices", log.touched_vertices.size()}});
    part.ExtendAssignments(new_db);
    const SetWord touched_units = part.TouchedUnits(new_db,
                                                    log.touched_vertices);
    result.remined_units = touched_units;
  }
  const SetWord& touched = result.remined_units;
  result.route_seconds = route_watch.ElapsedSeconds();
  PM_METRIC_HISTOGRAM("partminer.phase.route_ms")
      ->Observe(result.route_seconds * 1e3);

  // Per-unit changed-graph lists: unit j must reconsider graph i only when
  // an update touched a vertex whose edges reach unit j in graph i. This is
  // the per-graph refinement of the paper's per-unit setword — the better
  // the partitioning isolates the updated vertices (Section 4.1), the
  // shorter these lists get outside the hot units.
  // TidSet::Add keeps each set deduplicated and ordered as it is built; no
  // sort/unique pass over the lists afterwards.
  std::vector<TidSet> unit_changed(part.k());
  for (const auto& [graph_index, v] : log.touched_vertices) {
    const SetWord units = part.TouchedUnits(new_db, {{graph_index, v}});
    for (int j = 0; j < part.k(); ++j) {
      if (units.Test(j)) unit_changed[j].Add(graph_index);
    }
  }

  // Re-mine only the touched units (Figure 12 lines 3-5) and only against
  // their changed graphs (IncMergeJoin at the leaves), collecting the prune
  // set P: patterns that vanished from a re-mined unit and exist in no
  // other unit (lines 6-8).
  result.unit_mining_seconds.assign(part.k(), 0.0);
  std::vector<bool> node_dirty(tree.size(), false);
  PatternSet prune_set;

  std::vector<int> touched_nodes;
  for (size_t node = 0; node < tree.size(); ++node) {
    if (tree[node].left != -1) continue;  // Internal node.
    if (touched.Test(tree[node].lo)) {
      touched_nodes.push_back(static_cast<int>(node));
    }
  }

  // Phase A: re-mine each touched unit into a fresh set. Tasks write only
  // their own slots (fresh set, stats, frontier, timing), never
  // node_patterns, so the touched units can run on the work-stealing pool;
  // per-task stats are accumulated afterwards in node order.
  std::vector<PatternSet> fresh_sets(touched_nodes.size());
  std::vector<MergeJoinStats> task_stats(touched_nodes.size());
  auto remine_unit = [&](size_t idx) {
    const int node = touched_nodes[idx];
    const int unit_index = tree[node].lo;
    PM_TRACE_SPAN("inc_unit_mine",
                  {{"unit", unit_index},
                   {"changed_graphs", unit_changed[unit_index].Count()}});
    Stopwatch watch;
    const GraphDatabase unit_db = part.MaterializeUnit(new_db, unit_index);
    MergeJoinOptions leaf_options;
    leaf_options.min_support = state->NodeSupport(node);
    leaf_options.max_edges = state->options().max_edges;
    leaf_options.delta_sweep_max_fraction =
        state->options().inc_delta_sweep_max_fraction;
    fresh_sets[idx] = IncMergeJoin(unit_db, node_patterns[node],
                                   unit_changed[unit_index].ToVector(),
                                   leaf_options, &task_stats[idx],
                                   &node_frontiers[node]);
    result.unit_mining_seconds[unit_index] = watch.ElapsedSeconds();
  };
  const int threads = state->options().unit_mining_threads;
  if (threads > 0 && touched_nodes.size() > 1) {
    // Longest-first by changed-graph count, claimed through a shared
    // counter (see PartMiner::Mine for the scheduling rationale).
    std::vector<size_t> order(touched_nodes.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return unit_changed[tree[touched_nodes[a]].lo].Count() >
             unit_changed[tree[touched_nodes[b]].lo].Count();
    });
    ThreadPool pool(threads);
    std::atomic<size_t> next{0};
    TaskGroup group(&pool);
    for (size_t t = 0; t < order.size(); ++t) {
      group.Spawn([&]() {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        remine_unit(order[i]);
      });
    }
    group.Wait();
  } else {
    for (size_t idx = 0; idx < touched_nodes.size(); ++idx) remine_unit(idx);
  }
  for (const MergeJoinStats& s : task_stats) result.merge_stats.Accumulate(s);

  // Phase B: prune-set diff and apply, serially in ascending node order.
  // The diff consults the *other* units' pattern sets, with earlier-visited
  // units already replaced — an order the serial loop defined and the
  // parallel phase A must not perturb, hence the split.
  for (size_t idx = 0; idx < touched_nodes.size(); ++idx) {
    const int node = touched_nodes[idx];
    for (const PatternInfo& p : node_patterns[node].patterns()) {
      if (fresh_sets[idx].Contains(p.code)) continue;
      // Vanished here; keep in P only if absent from every other unit.
      bool elsewhere = false;
      for (size_t other = 0; other < tree.size() && !elsewhere; ++other) {
        if (static_cast<int>(other) == node || tree[other].left != -1) {
          continue;
        }
        if (node_patterns[other].Contains(p.code)) elsewhere = true;
      }
      if (!elsewhere) prune_set.Upsert(p);
    }
    node_patterns[node] = std::move(fresh_sets[idx]);
    node_dirty[node] = true;
  }
  result.prune_set_size = prune_set.size();

  // The paper prunes the pre-update result by the prune set (Figure 12
  // line 10): supergraphs of a vanished unit pattern lose their known-
  // frequent status. With the exact delta recount below the prune set is
  // advisory; it is reported through prune_set_size (and kept here because
  // the unit-level diff is also what dirties the merge path).

  // Incremental merge (IncMergeJoin, Figure 12 lines 11-12). Because every
  // node's cache is exact and IncMergeJoin recovers a node from its *own*
  // cache plus the update delta, interior nodes other than the root never
  // need eager re-merging — their caches are only consumed by the next
  // incremental round at the same node, and only the root's result is read.
  // The interior is therefore maintained lazily: only the root re-merges
  // (unless nothing at all changed).
  Stopwatch merge_watch;
  const bool anything_dirty =
      std::any_of(node_dirty.begin(), node_dirty.end(),
                  [](bool dirty) { return dirty; });
  if (anything_dirty && tree[part.root()].left != -1) {
    const int root = part.root();
    PM_TRACE_SPAN("inc_merge_root",
                  {{"candidates", node_patterns[root].size()}});
    // The root's recombined database is the database itself (the merge tree
    // covers every unit), so no materialization is needed.
    MergeJoinOptions mj;
    mj.min_support = state->NodeSupport(root);
    mj.max_edges = state->options().max_edges;
    mj.delta_sweep_max_fraction =
        state->options().inc_delta_sweep_max_fraction;
    node_patterns[root] = IncMergeJoin(new_db, node_patterns[root],
                                       log.updated_graphs, mj,
                                       &result.merge_stats,
                                       &node_frontiers[root]);
  }
  result.merge_seconds = merge_watch.ElapsedSeconds();
  PM_METRIC_HISTOGRAM("partminer.phase.merge_ms")
      ->Observe(result.merge_seconds * 1e3);

  // Delta verification: candidates are the merged root set plus everything
  // previously frequent (so frequent->infrequent transitions are detected).
  Stopwatch verify_watch;
  PatternSet candidates = node_patterns[part.root()];
  for (const PatternInfo& p : old_verified.patterns()) {
    if (candidates.Contains(p.code)) continue;
    // Pre-update info is stale with respect to the updated database; the
    // delta recount below re-establishes exactness.
    PatternInfo stale = p;
    stale.exact_tids = false;
    candidates.Upsert(std::move(stale));
  }
  PatternSet fresh_verified;
  {
    PM_TRACE_SPAN("verify_delta",
                  {{"candidates", candidates.size()},
                   {"support", root_support}});
    fresh_verified =
        VerifyDelta(new_db, candidates, old_verified, log.updated_graphs,
                    root_support, &result.verify_stats);
  }
  result.verify_seconds = verify_watch.ElapsedSeconds();
  PM_METRIC_HISTOGRAM("partminer.phase.verify_ms")
      ->Observe(result.verify_seconds * 1e3);

  // Classification (Section 4.5): exact, from the two verified sets.
  for (const PatternInfo& p : fresh_verified.patterns()) {
    (old_verified.Contains(p.code) ? result.uf : result.if_).Upsert(p);
  }
  for (const PatternInfo& p : old_verified.patterns()) {
    if (!fresh_verified.Contains(p.code)) result.fi.Upsert(p);
  }

  state->set_verified(fresh_verified);
  result.patterns = std::move(fresh_verified);
  return result;
}

}  // namespace partminer
