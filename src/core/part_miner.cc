#include "core/part_miner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timing.h"
#include "miner/engine.h"
#include "miner/gaston.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace partminer {

double PartMinerResult::UnitSecondsSum() const {
  double total = 0;
  for (const double t : unit_mining_seconds) total += t;
  return total;
}

double PartMinerResult::UnitSecondsMax() const {
  double max_t = 0;
  for (const double t : unit_mining_seconds) max_t = std::max(max_t, t);
  return max_t;
}

double PartMinerResult::AggregateSeconds() const {
  return partition_seconds + UnitSecondsSum() + merge_seconds;
}

double PartMinerResult::ParallelSeconds() const {
  return partition_seconds + UnitSecondsMax() + merge_seconds;
}

int PartMinerOptions::ResolveSupport(int db_size) const {
  if (min_support_count > 0) return min_support_count;
  const int count =
      static_cast<int>(std::ceil(min_support_fraction * db_size));
  return std::max(1, count);
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

PatternSet RootSweep(const GraphDatabase& db, int min_support, int max_edges,
                     Frontier* capture, ThreadPool* pool,
                     MergeJoinStats* stats, engine::GrowPhases* phases) {
  MinerOptions mo;
  mo.min_support = min_support;
  mo.max_edges = max_edges;
  mo.capture_frontier = capture;
  mo.pool = pool;
  PatternSet out = engine::GrowFromRoots(db, mo, nullptr, {}, phases);
  stats->candidates_counted += out.size();
  return out;
}

PartMiner::PartMiner(const PartMinerOptions& options) : options_(options) {}

const PartitionedDatabase& PartMiner::partitioned() const {
  static const PartitionedDatabase kEmpty;
  return kEmpty;
}

PartMinerResult PartMiner::Mine(const GraphDatabase& db) {
  PM_TRACE_SPAN("part_miner.mine", {{"graphs", db.size()}});
  PM_METRIC_COUNTER("partminer.mine_runs")->Increment();
  PartMinerResult result;
  root_support_ = options_.ResolveSupport(db.size());
  result.min_support_count = root_support_;

  // The root merge (Figure 11 lines 9-17) over the whole database, which is
  // the recombination of every unit, capturing the frontier Update reads,
  // on a pool of unit_mining_threads workers when that is positive.
  Stopwatch merge_watch;
  engine::GrowPhases phases;
  {
    PM_TRACE_SPAN("merge_node", {{"node", 0}, {"depth", 0}});
    std::unique_ptr<ThreadPool> pool;
    if (options_.unit_mining_threads > 0) {
      pool = std::make_unique<ThreadPool>(options_.unit_mining_threads);
    }
    root_frontier_.map.Clear();
    patterns_ = RootSweep(db, root_support_, options_.max_edges,
                          &root_frontier_.map, pool.get(),
                          &result.merge_stats, &phases);
  }
  result.merge_seconds = merge_watch.ElapsedSeconds();
  PM_METRIC_HISTOGRAM("partminer.mine.sweep_ms")
      ->Observe(result.merge_seconds * 1e3);
  PM_METRIC_HISTOGRAM("partminer.mine.root_scan_ms")
      ->Observe(phases.root_scan_ms);
  PM_METRIC_HISTOGRAM("partminer.mine.root_puts_ms")
      ->Observe(phases.root_puts_ms);
  PM_METRIC_HISTOGRAM("partminer.mine.tasks_ms")->Observe(phases.tasks_ms);
  PM_METRIC_HISTOGRAM("partminer.mine.splice_ms")->Observe(phases.splice_ms);
  PM_METRIC_HISTOGRAM("partminer.mine.index_ms")->Observe(phases.index_ms);
  result.merge_stats.PublishToRegistry();

  result.patterns = patterns_;
  mined_ = true;
  return result;
}

int NodeSupport(int root_support, int depth) {
  // Repeated halving, so intermediate ceilings compose the way the
  // completeness argument requires.
  int support = root_support;
  for (int d = 0; d < depth; ++d) support = (support + 1) / 2;
  return std::max(1, support);
}

PartMinerResult MinePaperPipeline(const GraphDatabase& db,
                                  const PartMinerOptions& options) {
  PM_TRACE_SPAN("part_miner.paper_pipeline",
                {{"graphs", db.size()},
                 {"k", options.partition.k},
                 {"threads", options.unit_mining_threads}});
  PartMinerResult result;
  const int root_support = options.ResolveSupport(db.size());
  result.min_support_count = root_support;

  // Phase 1: divide the database into k units (Figure 6).
  Stopwatch partition_watch;
  PartitionedDatabase partitioned;
  {
    PM_TRACE_SPAN("partition", {{"k", options.partition.k}});
    partitioned = PartitionedDatabase::Create(db, options.partition);
  }
  result.partition_seconds = partition_watch.ElapsedSeconds();
  PM_METRIC_HISTOGRAM("partminer.phase.partition_ms")
      ->Observe(result.partition_seconds * 1e3);

  // Phase 2a: mine every unit with the memory-based miner at its reduced
  // support (Figure 11 lines 4-5). Units are independent, so with
  // unit_mining_threads > 0 they run concurrently, each worker with its own
  // miner instance and output slot.
  const std::vector<MergeTreeNode>& tree = partitioned.tree();
  std::vector<PatternSet> unit_patterns(partitioned.k());
  std::vector<double> unit_seconds(partitioned.k(), 0.0);
  std::vector<int> leaf_nodes;
  for (size_t node = 0; node < tree.size(); ++node) {
    if (tree[node].left == -1) leaf_nodes.push_back(static_cast<int>(node));
  }
  // With unit_mining_threads > 0 the units and the root sweep share one
  // pool of exactly that width.
  std::unique_ptr<ThreadPool> pool;
  if (options.unit_mining_threads > 0) {
    pool = std::make_unique<ThreadPool>(options.unit_mining_threads);
  }
  auto mine_unit = [&](int node) {
    const int unit_index = tree[node].lo;
    const int support = NodeSupport(root_support, tree[node].depth);
    PM_TRACE_SPAN("unit_mine", {{"unit", unit_index}, {"support", support}});
    Stopwatch watch;
    const GraphDatabase unit_db = partitioned.MaterializeUnit(db, unit_index);
    MinerOptions miner_options;
    miner_options.min_support = support;
    miner_options.max_edges = options.max_edges;
    miner_options.pool = pool.get();
    unit_patterns[unit_index] = GastonMiner().Mine(unit_db, miner_options);
    unit_seconds[unit_index] = watch.ElapsedSeconds();
    PM_METRIC_HISTOGRAM("partminer.phase.unit_mine_ms")
        ->Observe(unit_seconds[unit_index] * 1e3);
  };
  {
    PM_TRACE_SPAN("unit_mining", {{"units", leaf_nodes.size()}});
    if (pool != nullptr) {
      // Units and their mining subtrees share the pool: a unit that
      // finishes early frees workers to steal extension subtrees of a
      // still-running heavy unit, which is what keeps the makespan near
      // max-unit instead of sum-of-stragglers.
      //
      // Longest-unit-first: units are claimed in descending assigned-vertex
      // order through a shared counter, so whichever task body runs first
      // picks up the heaviest remaining unit — submission and steal order
      // cannot invert the schedule.
      std::vector<int64_t> unit_vertices(partitioned.k(), 0);
      for (const std::vector<int>& graph_assign : partitioned.assignments()) {
        for (const int unit : graph_assign) ++unit_vertices[unit];
      }
      std::vector<int> order = leaf_nodes;
      std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return unit_vertices[tree[a].lo] > unit_vertices[tree[b].lo];
      });
      std::atomic<size_t> next{0};
      TaskGroup group(pool.get());
      for (size_t t = 0; t < order.size(); ++t) {
        group.Spawn([&]() {
          const size_t i = next.fetch_add(1, std::memory_order_relaxed);
          mine_unit(order[i]);
        });
      }
      group.Wait();
    } else {
      for (const int node : leaf_nodes) mine_unit(node);
    }
  }

  result.unit_mining_seconds = std::move(unit_seconds);

  // Phase 2b: the root merge-join (Figure 11 lines 9-17), the sweep
  // PartMiner::Mine runs, without its frontier capture: nothing reads a
  // frontier here, so the sweep grows on the units' pool. The unit sets
  // only feed the merge counters: a pattern in no unit is genuinely
  // cross-partition.
  Stopwatch merge_watch;
  {
    PM_TRACE_SPAN("merge_node", {{"node", 0}, {"depth", 0}});
    result.patterns = RootSweep(db, root_support, options.max_edges,
                                /*capture=*/nullptr, pool.get(),
                                &result.merge_stats);
  }
  result.merge_seconds = merge_watch.ElapsedSeconds();
  PM_METRIC_HISTOGRAM("partminer.pipeline.merge_ms")
      ->Observe(result.merge_seconds * 1e3);
  for (const PatternSet& unit : unit_patterns) {
    result.merge_stats.inherited_patterns += unit.size();
  }
  for (const PatternInfo& p : result.patterns.patterns()) {
    if (std::none_of(unit_patterns.begin(), unit_patterns.end(),
                     [&p](const PatternSet& unit) {
                       return unit.Contains(p.code);
                     })) {
      ++result.merge_stats.spanning_found;
    }
  }
  result.merge_stats.PublishToRegistry();
  return result;
}

}  // namespace partminer
