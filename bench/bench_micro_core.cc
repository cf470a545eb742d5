// Micro benchmarks (google-benchmark) for the core graph machinery:
// minimum-DFS-code construction, minimality checking (generic vs the
// Gaston path fast-path), subgraph-isomorphism support counting, and the
// TidSet operations at sizes on both sides of the inline/dense boundary.

#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "graph/canonical.h"
#include "graph/dfs_code.h"
#include "graph/graph.h"
#include "graph/isomorphism.h"
#include "graph/tid_set.h"
#include "miner/gaston.h"

namespace partminer {
namespace {

Graph RandomConnected(Rng* rng, int vertices, int extra_edges, int vlabels,
                      int elabels) {
  Graph g;
  for (int i = 0; i < vertices; ++i) {
    g.AddVertex(static_cast<Label>(rng->Uniform(vlabels)));
  }
  for (int v = 1; v < vertices; ++v) {
    g.AddEdge(static_cast<VertexId>(rng->Uniform(v)), v,
              static_cast<Label>(rng->Uniform(elabels)));
  }
  for (int i = 0; i < extra_edges; ++i) {
    const VertexId u = static_cast<VertexId>(rng->Uniform(vertices));
    const VertexId v = static_cast<VertexId>(rng->Uniform(vertices));
    if (u != v && !g.HasEdge(u, v)) {
      g.AddEdge(u, v, static_cast<Label>(rng->Uniform(elabels)));
    }
  }
  return g;
}

void BM_MinimumDfsCode(benchmark::State& state) {
  Rng rng(7);
  std::vector<Graph> graphs;
  for (int i = 0; i < 64; ++i) {
    graphs.push_back(
        RandomConnected(&rng, static_cast<int>(state.range(0)), 3, 3, 2));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinimumDfsCode(graphs[i++ % graphs.size()]));
  }
}
BENCHMARK(BM_MinimumDfsCode)->Arg(4)->Arg(8)->Arg(12);

void BM_IsMinimalDfsCode(benchmark::State& state) {
  Rng rng(11);
  std::vector<DfsCode> codes;
  for (int i = 0; i < 64; ++i) {
    codes.push_back(MinimumDfsCode(
        RandomConnected(&rng, static_cast<int>(state.range(0)), 3, 3, 2)));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsMinimalDfsCode(codes[i++ % codes.size()]));
  }
}
BENCHMARK(BM_IsMinimalDfsCode)->Arg(4)->Arg(8)->Arg(12);

void BM_PathMinimalityGeneric(benchmark::State& state) {
  // Straight path patterns: the case Gaston's fast path accelerates.
  Rng rng(13);
  std::vector<DfsCode> codes;
  for (int i = 0; i < 64; ++i) {
    Graph path;
    const int n = static_cast<int>(state.range(0));
    path.AddVertex(static_cast<Label>(rng.Uniform(3)));
    for (int v = 1; v < n; ++v) {
      path.AddVertex(static_cast<Label>(rng.Uniform(3)));
      path.AddEdge(v - 1, v, static_cast<Label>(rng.Uniform(2)));
    }
    codes.push_back(MinimumDfsCode(path));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsMinimalDfsCode(codes[i++ % codes.size()]));
  }
}
BENCHMARK(BM_PathMinimalityGeneric)->Arg(6)->Arg(10);

void BM_PathMinimalityFastPath(benchmark::State& state) {
  Rng rng(13);
  std::vector<DfsCode> codes;
  for (int i = 0; i < 64; ++i) {
    Graph path;
    const int n = static_cast<int>(state.range(0));
    path.AddVertex(static_cast<Label>(rng.Uniform(3)));
    for (int v = 1; v < n; ++v) {
      path.AddVertex(static_cast<Label>(rng.Uniform(3)));
      path.AddEdge(v - 1, v, static_cast<Label>(rng.Uniform(2)));
    }
    codes.push_back(MinimumDfsCode(path));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsMinimalPathCode(codes[i++ % codes.size()]));
  }
}
BENCHMARK(BM_PathMinimalityFastPath)->Arg(6)->Arg(10);

void BM_SubgraphIsomorphism(benchmark::State& state) {
  Rng rng(17);
  const Graph host = RandomConnected(&rng, 20, 10, 3, 2);
  std::vector<SubgraphMatcher> matchers;
  for (int i = 0; i < 16; ++i) {
    matchers.emplace_back(
        RandomConnected(&rng, static_cast<int>(state.range(0)), 1, 3, 2));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matchers[i++ % matchers.size()].Matches(host));
  }
}
BENCHMARK(BM_SubgraphIsomorphism)->Arg(3)->Arg(5)->Arg(8);

// `members` distinct TIDs drawn from a 2000-graph database.
TidSet RandomTidSet(Rng* rng, int members) {
  constexpr int kUniverse = 2000;
  std::vector<int> all(kUniverse);
  for (int i = 0; i < kUniverse; ++i) all[i] = i;
  for (int i = 0; i < members; ++i) {
    std::swap(all[i], all[i + rng->Uniform(kUniverse - i)]);
  }
  all.resize(members);
  return TidSet::FromVector(all);
}

// Per-operation reference at 1, 4 (largest inline), 5 (smallest dense), 80
// and 2000 members; each operand pair has equal sizes.
void TidSetSizes(benchmark::internal::Benchmark* b) {
  for (const int members : {1, 4, 5, 80, 2000}) b->Arg(members);
}

void BM_TidSetUnion(benchmark::State& state) {
  Rng rng(19);
  const TidSet a = RandomTidSet(&rng, static_cast<int>(state.range(0)));
  const TidSet b = RandomTidSet(&rng, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    TidSet got = a;
    got |= b;
    benchmark::DoNotOptimize(got);
  }
}
BENCHMARK(BM_TidSetUnion)->Apply(TidSetSizes);

void BM_TidSetDifference(benchmark::State& state) {
  Rng rng(23);
  const TidSet a = RandomTidSet(&rng, static_cast<int>(state.range(0)));
  const TidSet b = RandomTidSet(&rng, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    TidSet got = a;
    got -= b;
    benchmark::DoNotOptimize(got);
  }
}
BENCHMARK(BM_TidSetDifference)->Apply(TidSetSizes);

void BM_TidSetCount(benchmark::State& state) {
  Rng rng(29);
  const TidSet a = RandomTidSet(&rng, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Count());
  }
}
BENCHMARK(BM_TidSetCount)->Apply(TidSetSizes);

}  // namespace
}  // namespace partminer

BENCHMARK_MAIN();
