// Known minimality verdicts are pure accelerators: an update round skips
// the minimality test for the codes the resident exact set already decides
// (DESIGN.md §10). Incremental rounds that skip them, at a small and a
// large share of updated graphs, must match a from-scratch mine bit for
// bit.

#include <string>

#include <gtest/gtest.h>

#include "core/inc_part_miner.h"
#include "core/part_miner.h"
#include "datagen/generator.h"
#include "datagen/update_generator.h"
#include "tests/test_util.h"

namespace partminer {
namespace {

using testutil::ExpectSamePatterns;

GraphDatabase MakeDatabase(uint64_t seed) {
  GeneratorParams params;
  params.num_graphs = 18;
  params.avg_edges = 10;
  params.num_labels = 5;
  params.num_kernels = 8;
  params.avg_kernel_edges = 3;
  params.seed = seed;
  GraphDatabase db = GenerateDatabase(params);
  AssignUpdateHotspots(&db, 0.2, seed + 1);
  return db;
}

class FastPathIncremental : public ::testing::TestWithParam<int> {};

/// A 10% round and a 40% round both take IncMergeJoin's delta path and skip
/// the minimality test wherever the verdict is known. Each round must match the paper pipeline re-mining the updated database
/// from scratch on `threads` unit-mining threads.
TEST_P(FastPathIncremental, UpdateBitIdentical) {
  const int threads = GetParam();
  GraphDatabase db = MakeDatabase(33);
  PartMinerOptions options;
  options.min_support_count = 4;
  options.partition.k = 3;
  options.unit_mining_threads = threads;
  PartMiner miner(options);
  miner.Mine(db);

  IncPartMiner inc;
  for (const double fraction : {0.1, 0.4}) {
    UpdateOptions upd;
    upd.fraction_graphs = fraction;
    upd.updates_per_graph = 2;
    upd.seed = 17;
    const UpdateLog log = ApplyUpdates(&db, 5, upd);
    ASSERT_FALSE(log.updated_graphs.empty());

    const PatternSet incremental = inc.Update(&miner, db, log).patterns;
    ASSERT_GT(incremental.size(), 0);
    ExpectSamePatterns(MinePaperPipeline(db, options).patterns, incremental,
                       "fraction " + std::to_string(fraction) + " threads=" +
                           std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, FastPathIncremental,
                         ::testing::Values(1, 2, 8));

}  // namespace
}  // namespace partminer
