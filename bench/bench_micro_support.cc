// Micro benchmarks for the support-counting fast path: the label inverted
// index (candidate pruning before the backtracking isomorphism test) and the
// min-DFS-code memo cache. Each benchmark runs with the fast path off
// (Arg 0) and on (Arg 1) over identical inputs; mined output is
// bit-identical in both configurations (support_fastpath_test), so the pair
// measures pure counting cost. The memo cache is cleared whenever a
// configuration is (re)entered, so an "on" run never inherits verdicts from
// a previous benchmark.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "core/part_miner.h"
#include "datagen/generator.h"
#include "graph/canonical.h"
#include "graph/label_index.h"
#include "miner/apriori.h"
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

void SetFastPath(bool enabled) {
  SetLabelIndexEnabled(enabled);
  SetMinimalityCacheEnabled(enabled);
  ClearMinimalityCache();
}

// The label index's one user: Apriori counts every candidate by
// subgraph isomorphism inside its parent's TID list, and with the index on
// that list is first intersected with the graphs whose labels can host the
// candidate. A fresh database copy per iteration pays the lazy index build;
// only the index is toggled (the memo cache stays on).
void BM_AprioriLabelIndex(benchmark::State& state) {
  const GraphDatabase base = Workload(250);
  MinerOptions options;
  options.min_support = std::max(1, static_cast<int>(0.04 * base.size()));

  SetFastPath(true);
  SetLabelIndexEnabled(state.range(0) != 0);
  int patterns = 0;
  for (auto _ : state) {
    const GraphDatabase db = base;
    AprioriMiner miner;
    patterns = miner.Mine(db, options).size();
    benchmark::DoNotOptimize(patterns);
  }
  state.counters["patterns"] = patterns;
  SetFastPath(true);
}
BENCHMARK(BM_AprioriLabelIndex)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// The memo cache in isolation: re-check the minimality of every mined code
// plus its right-most-path extensions' parents, as repeated mining rounds
// over an evolving database do. The first "on" iteration pays the misses;
// steady state is a sharded hash probe per code instead of a full
// permutation search.
void BM_MinimalityMemo(benchmark::State& state) {
  const GraphDatabase db = Workload(400);
  const int sup = std::max(1, static_cast<int>(0.04 * db.size()));
  GSpanMiner miner;
  MinerOptions options;
  options.min_support = sup;
  const PatternSet mined = miner.Mine(db, options);

  SetFastPath(state.range(0) != 0);
  int64_t minimal = 0;
  for (auto _ : state) {
    minimal = 0;
    for (const PatternInfo& p : mined.patterns()) {
      minimal += IsMinimalDfsCode(p.code) ? 1 : 0;
    }
    benchmark::DoNotOptimize(minimal);
  }
  state.counters["codes"] = mined.size();
  state.counters["minimal"] = static_cast<double>(minimal);
  SetFastPath(true);
}
BENCHMARK(BM_MinimalityMemo)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// End to end: a full PartMiner run (unit mining + root merge). Only the
// memo cache is live here, under every minimality check of the unit miners
// and the root sweep; PartMiner counts no support by isomorphism, so the
// index is idle. Repeated iterations keep the cache warm, matching the
// repeated-round usage the cache exists for.
void BM_PartMinerFastPath(benchmark::State& state) {
  const GraphDatabase db = Workload(400);
  PartMinerOptions options;
  options.min_support_fraction = 0.04;
  options.partition.k = 4;

  SetFastPath(state.range(0) != 0);
  int patterns = 0;
  for (auto _ : state) {
    PartMiner miner(options);
    patterns = miner.Mine(db).patterns.size();
  }
  state.counters["patterns"] = patterns;
  SetFastPath(true);
}
BENCHMARK(BM_PartMinerFastPath)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace partminer

BENCHMARK_MAIN();
