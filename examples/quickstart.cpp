// Quickstart: generate a small graph database, mine it three ways (gSpan,
// Gaston, PartMiner), verify they agree, and print the top patterns.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/part_miner.h"
#include "miner/closed.h"
#include "datagen/generator.h"
#include "miner/gaston.h"
#include "miner/gspan.h"

int main() {
  using namespace partminer;

  // 1. A synthetic database in the paper's parameterization (Table 1):
  //    200 graphs, ~20 edges each, 20 labels, 12 planted kernels.
  GeneratorParams params;
  params.num_graphs = 200;
  params.avg_edges = 20;
  params.num_labels = 20;
  params.num_kernels = 12;
  params.avg_kernel_edges = 5;
  params.seed = 42;
  const GraphDatabase db = GenerateDatabase(params);
  std::printf("database %s: %d graphs, %lld edges total\n",
              params.Tag().c_str(), db.size(),
              static_cast<long long>(db.TotalEdges()));

  // 2. Mine at 5% minimum support with the two memory-based miners.
  MinerOptions options;
  options.min_support = static_cast<int>(0.05 * db.size());

  GSpanMiner gspan;
  const PatternSet by_gspan = gspan.Mine(db, options);

  GastonMiner gaston;
  const PatternSet by_gaston = gaston.Mine(db, options);
  std::printf("gSpan found %d frequent subgraphs; Gaston found %d\n",
              by_gspan.size(), by_gaston.size());
  std::printf("Gaston phase breakdown: %lld paths, %lld trees, %lld cyclic "
              "(the Gaston observation: trees dominate)\n",
              static_cast<long long>(gaston.stats().frequent_paths),
              static_cast<long long>(gaston.stats().frequent_trees),
              static_cast<long long>(gaston.stats().frequent_cyclic));

  // 3. PartMiner: partition into 4 units, mine the units at reduced support,
  //    merge-join at the root — same result (Theorems 1-3).
  PartMinerOptions pm_options;
  pm_options.min_support_count = options.min_support;
  pm_options.partition.k = 4;
  const PartMinerResult result = MinePaperPipeline(db, pm_options);
  std::printf("PartMiner (k=4) found %d patterns in %.3fs aggregate / %.3fs "
              "parallel\n",
              result.patterns.size(), result.AggregateSeconds(),
              result.ParallelSeconds());

  const bool identical =
      by_gspan.SortedCodeStrings() == result.patterns.SortedCodeStrings() &&
      by_gspan.SortedCodeStrings() == by_gaston.SortedCodeStrings();
  std::printf("all three miners agree: %s\n", identical ? "yes" : "NO!");

  // 4. Condensed representations (CloseGraph/SPIN-style, see
  //    miner/closed.h): closed and maximal subsets of the same result.
  const PatternSet closed = ClosedPatterns(result.patterns);
  const PatternSet maximal = MaximalPatterns(result.patterns);
  std::printf("condensed: %d closed, %d maximal (of %d)\n", closed.size(),
              maximal.size(), result.patterns.size());

  // 5. The five most frequent non-trivial patterns.
  std::vector<const PatternInfo*> ranked;
  for (const PatternInfo& p : result.patterns.patterns()) {
    if (p.code.size() >= 2) ranked.push_back(&p);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const PatternInfo* a, const PatternInfo* b) {
              return a->support > b->support;
            });
  std::printf("top patterns (support, edges, DFS code):\n");
  for (size_t i = 0; i < ranked.size() && i < 5; ++i) {
    std::printf("  %4d  %zu  %s\n", ranked[i]->support,
                ranked[i]->code.size(), ranked[i]->code.ToString().c_str());
  }
  return identical ? 0 : 1;
}
