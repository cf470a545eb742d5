#include "core/part_miner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timing.h"
#include "miner/gaston.h"
#include "miner/gspan.h"
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

PartMiner::PartMiner(const PartMinerOptions& options) : options_(options) {}

const PartitionedDatabase& PartMiner::partitioned() const {
  static const PartitionedDatabase kEmpty;
  return kEmpty;
}

int PartMiner::ResolveSupport(int db_size) const {
  if (options_.min_support_count > 0) return options_.min_support_count;
  const int count = static_cast<int>(
      std::ceil(options_.min_support_fraction * db_size));
  return std::max(1, count);
}

PartMinerResult PartMiner::Mine(const GraphDatabase& db) {
  PM_TRACE_SPAN("part_miner.mine", {{"graphs", db.size()}});
  PM_METRIC_COUNTER("partminer.mine_runs")->Increment();
  PartMinerResult result;
  root_support_ = ResolveSupport(db.size());
  result.min_support_count = root_support_;

  // The root merge (Figure 11 lines 9-17) over the whole database, which is
  // the recombination of every unit, capturing the frontier Update reads.
  Stopwatch merge_watch;
  {
    PM_TRACE_SPAN("merge_node", {{"node", 0}, {"depth", 0}});
    MergeJoinOptions mj;
    mj.min_support = root_support_;
    mj.max_edges = options_.max_edges;
    patterns_ = MergeJoin(db, mj, &result.merge_stats, &root_frontier_);
  }
  result.merge_seconds = merge_watch.ElapsedSeconds();
  PM_METRIC_HISTOGRAM("partminer.phase.merge_ms")
      ->Observe(result.merge_seconds * 1e3);

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

namespace {

std::unique_ptr<FrequentSubgraphMiner> MakeUnitMiner(UnitMinerKind kind) {
  switch (kind) {
    case UnitMinerKind::kGaston:
      return std::make_unique<GastonMiner>();
    case UnitMinerKind::kGSpan:
      return std::make_unique<GSpanMiner>();
  }
  PM_CHECK(false);
  return nullptr;
}

}  // namespace

PartMinerResult MinePaperPipeline(const GraphDatabase& db,
                                  const PartMinerOptions& options,
                                  NodeFrontier* root_frontier) {
  PM_TRACE_SPAN("part_miner.paper_pipeline",
                {{"graphs", db.size()},
                 {"k", options.partition.k},
                 {"threads", options.unit_mining_threads}});
  PartMiner miner(options);
  const int root_support = miner.ResolveSupport(db.size());

  // Phase 1: divide the database into k units (Figure 6).
  Stopwatch partition_watch;
  PartitionedDatabase partitioned;
  {
    PM_TRACE_SPAN("partition", {{"k", options.partition.k}});
    partitioned = PartitionedDatabase::Create(db, options.partition);
  }
  const double partition_seconds = partition_watch.ElapsedSeconds();
  PM_METRIC_HISTOGRAM("partminer.phase.partition_ms")
      ->Observe(partition_seconds * 1e3);

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
  auto mine_unit = [&](int node, ThreadPool* pool) {
    const int unit_index = tree[node].lo;
    const int support = NodeSupport(root_support, tree[node].depth);
    PM_TRACE_SPAN("unit_mine", {{"unit", unit_index}, {"support", support}});
    Stopwatch watch;
    const GraphDatabase unit_db = partitioned.MaterializeUnit(db, unit_index);
    MinerOptions miner_options;
    miner_options.min_support = support;
    miner_options.max_edges = options.max_edges;
    miner_options.pool = pool;
    unit_patterns[unit_index] =
        MakeUnitMiner(options.unit_miner)->Mine(unit_db, miner_options);
    unit_seconds[unit_index] = watch.ElapsedSeconds();
    PM_METRIC_HISTOGRAM("partminer.phase.unit_mine_ms")
        ->Observe(unit_seconds[unit_index] * 1e3);
  };
  {
    PM_TRACE_SPAN("unit_mining", {{"units", leaf_nodes.size()}});
    if (options.unit_mining_threads > 0) {
      // Pool width is exactly unit_mining_threads. Units and their mining
      // subtrees share the pool: a unit that finishes early frees workers
      // to steal extension subtrees of a still-running heavy unit, which is
      // what keeps the makespan near max-unit instead of sum-of-stragglers.
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
      ThreadPool pool(options.unit_mining_threads);
      std::atomic<size_t> next{0};
      TaskGroup group(&pool);
      for (size_t t = 0; t < order.size(); ++t) {
        group.Spawn([&]() {
          const size_t i = next.fetch_add(1, std::memory_order_relaxed);
          mine_unit(order[i], &pool);
        });
      }
      group.Wait();
    } else {
      for (const int node : leaf_nodes) mine_unit(node, nullptr);
    }
  }

  // Phase 2b: the root merge-join (Figure 11 lines 9-17), exactly as the
  // resident miner runs it. The unit sets only feed the merge counters: a
  // pattern in no unit is genuinely cross-partition.
  PartMinerResult result = miner.Mine(db);
  result.partition_seconds = partition_seconds;
  result.unit_mining_seconds = std::move(unit_seconds);
  MergeJoinStats unit_stats;
  for (const PatternSet& unit : unit_patterns) {
    unit_stats.inherited_patterns += unit.size();
  }
  for (const PatternInfo& p : result.patterns.patterns()) {
    if (std::none_of(unit_patterns.begin(), unit_patterns.end(),
                     [&p](const PatternSet& unit) {
                       return unit.Contains(p.code);
                     })) {
      ++unit_stats.spanning_found;
    }
  }
  unit_stats.PublishToRegistry();
  result.merge_stats.Accumulate(unit_stats);
  if (root_frontier != nullptr) {
    *root_frontier = std::move(miner.mutable_root_frontier());
  }
  return result;
}

}  // namespace partminer
