// Stress / failure-injection tests: degenerate partitions and boundary
// parameters that unit tests miss. The long many-round incremental cases
// live in stress_slow_test.cc under the `slow` ctest label.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/inc_part_miner.h"
#include "core/part_miner.h"
#include "datagen/generator.h"
#include "datagen/update_generator.h"
#include "miner/gspan.h"
#include "tests/test_util.h"

namespace partminer {
namespace {

using testutil::ExpectSamePatterns;

TEST(StressTest, MoreUnitsThanVertices) {
  // Tiny graphs with k=6 units: most units end up empty; everything must
  // still be exact.
  GraphDatabase db;
  Rng rng(3);
  for (int i = 0; i < 12; ++i) {
    db.Add(testutil::RandomConnectedGraph(&rng, 3, 1, 2, 2));
  }
  PartMinerOptions options;
  options.min_support_count = 3;
  options.partition.k = 6;
  const PartMinerResult result = MinePaperPipeline(db, options);

  GSpanMiner gspan;
  MinerOptions full;
  full.min_support = 3;
  ExpectSamePatterns(gspan.Mine(db, full), result.patterns, "k>vertices");
}

TEST(StressTest, SingleGraphDatabase) {
  Rng rng(4);
  GraphDatabase db;
  db.Add(testutil::RandomConnectedGraph(&rng, 10, 5, 3, 2));
  PartMinerOptions options;
  options.min_support_count = 1;
  options.partition.k = 2;
  options.max_edges = 4;  // Bound the lattice of the single graph.
  const PartMinerResult result = MinePaperPipeline(db, options);

  GSpanMiner gspan;
  MinerOptions full;
  full.min_support = 1;
  full.max_edges = 4;
  ExpectSamePatterns(gspan.Mine(db, full), result.patterns, "single graph");
}

TEST(StressTest, EmptyUpdateLogIsIdentity) {
  GeneratorParams params;
  params.num_graphs = 10;
  params.avg_edges = 8;
  params.num_labels = 4;
  params.num_kernels = 4;
  GraphDatabase db = GenerateDatabase(params);
  PartMinerOptions options;
  options.min_support_count = 3;
  options.partition.k = 2;
  PartMiner miner(options);
  const PartMinerResult before = miner.Mine(db);

  IncPartMiner inc;
  UpdateLog empty;
  const IncPartMinerResult r = inc.Update(&miner, db, empty);
  ExpectSamePatterns(before.patterns, r.patterns, "empty update");
  EXPECT_EQ(r.fi.size(), 0);
  EXPECT_EQ(r.if_.size(), 0);
}

TEST(StressTest, HighSupportYieldsEmptyResultCleanly) {
  Rng rng(5);
  const GraphDatabase db = testutil::RandomDatabase(&rng, 6, 5, 2, 5, 3);
  PartMinerOptions options;
  options.min_support_count = 100;  // Above the database size.
  options.partition.k = 3;
  PartMiner miner(options);
  const PartMinerResult result = miner.Mine(db);
  EXPECT_EQ(result.patterns.size(), 0);
}

}  // namespace
}  // namespace partminer
