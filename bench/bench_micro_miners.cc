// Ablation benchmarks over the mining stack: gSpan vs Gaston, the
// unit-support factor (DESIGN.md ablation #1: ceil(sup/2^depth) vs mining
// units at the full support loses patterns), and the incremental round at
// varying update fractions.

#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/inc_part_miner.h"
#include "core/part_miner.h"
#include "datagen/generator.h"
#include "datagen/update_generator.h"
#include "miner/engine.h"
#include "miner/gaston.h"
#include "miner/gspan.h"

namespace partminer {
namespace {

GraphDatabase Workload(int d) {
  GeneratorParams params;
  params.num_graphs = d;
  params.avg_edges = 20;
  params.num_labels = 20;
  params.num_kernels = std::max(5, d / 10);
  params.seed = 2;
  GraphDatabase db = GenerateDatabase(params);
  AssignUpdateHotspots(&db, 0.15, 3);
  return db;
}

void BM_GSpanFull(benchmark::State& state) {
  const GraphDatabase db = Workload(static_cast<int>(state.range(0)));
  MinerOptions options;
  options.min_support = std::max(1, static_cast<int>(0.04 * db.size()));
  GSpanMiner miner;
  int patterns = 0;
  for (auto _ : state) {
    patterns = miner.Mine(db, options).size();
  }
  state.counters["patterns"] = patterns;
}
BENCHMARK(BM_GSpanFull)->Arg(250)->Arg(500);

void BM_GastonFull(benchmark::State& state) {
  const GraphDatabase db = Workload(static_cast<int>(state.range(0)));
  MinerOptions options;
  options.min_support = std::max(1, static_cast<int>(0.04 * db.size()));
  GastonMiner miner;
  int patterns = 0;
  for (auto _ : state) {
    patterns = miner.Mine(db, options).size();
  }
  state.counters["patterns"] = patterns;
}
BENCHMARK(BM_GastonFull)->Arg(250)->Arg(500);

// Parallel search-tree variants: same D500 workload as the Full benchmarks
// above, fanned onto a work-stealing pool of state.range(0) workers. Output
// is bit-identical to serial (parallel_mine_test), so patterns should match
// BM_*Full at Arg(500) exactly; only the wall clock moves. On a single-core
// machine expect parity at 1 thread and scheduling overhead, not speedup,
// beyond that.
void BM_GSpanParallel(benchmark::State& state) {
  const GraphDatabase db = Workload(500);
  ThreadPool pool(static_cast<int>(state.range(0)));
  MinerOptions options;
  options.min_support = std::max(1, static_cast<int>(0.04 * db.size()));
  options.pool = &pool;
  GSpanMiner miner;
  int patterns = 0;
  for (auto _ : state) {
    patterns = miner.Mine(db, options).size();
  }
  state.counters["patterns"] = patterns;
  state.counters["steals"] =
      static_cast<double>(pool.stats().steals.load());
}
BENCHMARK(BM_GSpanParallel)->Arg(1)->Arg(2)->Arg(4);

void BM_GastonParallel(benchmark::State& state) {
  const GraphDatabase db = Workload(500);
  ThreadPool pool(static_cast<int>(state.range(0)));
  MinerOptions options;
  options.min_support = std::max(1, static_cast<int>(0.04 * db.size()));
  options.pool = &pool;
  GastonMiner miner;
  int patterns = 0;
  for (auto _ : state) {
    patterns = miner.Mine(db, options).size();
  }
  state.counters["patterns"] = patterns;
  state.counters["steals"] =
      static_cast<double>(pool.stats().steals.load());
}
BENCHMARK(BM_GastonParallel)->Arg(1)->Arg(2)->Arg(4);

// PartMiner unit scheduling on the shared pool (satellite of the same
// change): units are claimed longest-first, and each unit's subtree fans
// onto the pool as well.
void BM_PartMinerUnitsParallel(benchmark::State& state) {
  const GraphDatabase db = Workload(500);
  PartMinerOptions options;
  options.min_support_fraction = 0.04;
  options.partition.k = 4;
  options.unit_mining_threads = static_cast<int>(state.range(0));
  int patterns = 0;
  for (auto _ : state) {
    patterns = MinePaperPipeline(db, options).patterns.size();
  }
  state.counters["patterns"] = patterns;
}
BENCHMARK(BM_PartMinerUnitsParallel)->Arg(0)->Arg(2)->Arg(4);

// Ablation: what the reduced unit support buys. Mining the two units of a
// bisected database at the *root* support and unioning loses the patterns
// whose occurrences split across units; the reduced support (Theorem 3)
// recovers them. Reported as counters on a single workload.
void BM_UnitSupportAblation(benchmark::State& state) {
  const GraphDatabase db = Workload(300);
  const int sup = std::max(1, static_cast<int>(0.04 * db.size()));
  PartitionOptions popt;
  popt.k = 2;
  const PartitionedDatabase part = PartitionedDatabase::Create(db, popt);
  const GraphDatabase left = part.MaterializeUnit(db, 0);
  const GraphDatabase right = part.MaterializeUnit(db, 1);
  GSpanMiner miner;
  MinerOptions full;
  full.min_support = sup;
  const PatternSet expected = miner.Mine(db, full);

  int reduced_union = 0, naive_union = 0;
  for (auto _ : state) {
    MinerOptions reduced;
    reduced.min_support = (sup + 1) / 2;
    PatternSet u = miner.Mine(left, reduced);
    u.MergeFrom(miner.Mine(right, reduced));
    int covered = 0;
    for (const PatternInfo& p : expected.patterns()) {
      if (u.Contains(p.code)) ++covered;
    }
    reduced_union = covered;

    MinerOptions naive;
    naive.min_support = sup;
    PatternSet n = miner.Mine(left, naive);
    n.MergeFrom(miner.Mine(right, naive));
    covered = 0;
    for (const PatternInfo& p : expected.patterns()) {
      if (n.Contains(p.code)) ++covered;
    }
    naive_union = covered;
  }
  state.counters["frequent_total"] = expected.size();
  state.counters["covered_reduced_sup"] = reduced_union;
  state.counters["covered_full_sup"] = naive_union;
}
BENCHMARK(BM_UnitSupportAblation)->Iterations(1);

/// One IncPartMiner::ApplyRound at 4% support after updating
/// `state.range(0)` percent of the graphs, each from a fresh copy of one
/// mined state. Rounds over half the database compact the frontier first,
/// so the large shares keep the cost of that pass measurable.
void BM_IncMergeJoin(benchmark::State& state) {
  GraphDatabase db = Workload(400);
  PartMinerOptions options;
  options.min_support_count =
      std::max(1, static_cast<int>(0.04 * db.size()));
  PartMiner base(options);
  base.Mine(db);

  UpdateOptions upd;
  upd.fraction_graphs = state.range(0) / 100.0;
  upd.seed = 9;
  const UpdateLog log = ApplyUpdates(&db, 20, upd);

  IncPartMiner inc;
  PartMiner miner(options);
  int64_t candidates = 0;
  for (auto _ : state) {
    state.PauseTiming();
    miner = base;
    state.ResumeTiming();
    IncPartMinerResult result = inc.ApplyRound(&miner, db, log);
    benchmark::DoNotOptimize(result);
    candidates = result.merge_stats.candidates_generated;
  }
  state.counters["updated_graphs"] =
      static_cast<double>(log.updated_graphs.size());
  state.counters["candidates"] = static_cast<double>(candidates);
}
BENCHMARK(BM_IncMergeJoin)->Arg(2)->Arg(10)->Arg(40)->Arg(80)->Arg(100);

/// The database of the resident miner's measurements: D2000 T20 N20 L200
/// I5, generator seed 1.
const GraphDatabase& ResidentWorkload() {
  static const GraphDatabase* db = [] {
    GeneratorParams params;
    params.num_graphs = 2000;
    params.avg_edges = 20;
    params.num_labels = 20;
    params.num_kernels = 200;
    params.avg_kernel_edges = 5;
    params.seed = 1;
    return new GraphDatabase(GenerateDatabase(params));
  }();
  return *db;
}

/// The root scan of a capturing sweep over every graph, serially (Arg 0) or
/// on a pool of state.range(0) workers.
void BM_CollectRootExtensions(benchmark::State& state) {
  const GraphDatabase& db = ResidentWorkload();
  std::unique_ptr<ThreadPool> pool;
  if (state.range(0) > 0) {
    pool = std::make_unique<ThreadPool>(static_cast<int>(state.range(0)));
  }
  std::vector<int> all(db.size());
  for (int i = 0; i < db.size(); ++i) all[i] = i;
  size_t groups = 0;
  for (auto _ : state) {
    groups = engine::CollectRootExtensions(db, all, pool.get()).size();
  }
  state.counters["groups"] = static_cast<double>(groups);
}
BENCHMARK(BM_CollectRootExtensions)->Arg(0)->Arg(4)->Unit(
    benchmark::kMillisecond);

/// PartMiner::Mine at 4%: the captured root sweep, serially (Arg 0) or on
/// state.range(0) unit-mining threads.
void BM_CapturedMine(benchmark::State& state) {
  const GraphDatabase& db = ResidentWorkload();
  PartMinerOptions options;
  options.min_support_fraction = 0.04;
  options.unit_mining_threads = static_cast<int>(state.range(0));
  size_t nodes = 0;
  for (auto _ : state) {
    PartMiner miner(options);
    miner.Mine(db);
    nodes = miner.root_frontier().map.node_count();
  }
  state.counters["frontier_nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_CapturedMine)->Arg(0)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace partminer

BENCHMARK_MAIN();
