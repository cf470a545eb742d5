#include "core/part_miner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "datagen/generator.h"
#include "miner/gspan.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace partminer {
namespace {

using testutil::ExpectSamePatterns;

/// The headline property (Theorems 1-3): the paper pipeline's output is
/// exactly the gSpan result on the unpartitioned database — same patterns,
/// same supports, same TID lists — for every k and partition criteria.
struct PartMinerCase {
  int k;
  PartitionCriteria criteria;
  int min_support;
};

class PartMinerEquivalence : public ::testing::TestWithParam<PartMinerCase> {};

TEST_P(PartMinerEquivalence, MatchesGSpan) {
  const PartMinerCase& c = GetParam();
  Rng rng(1000 + c.k * 17 + static_cast<int>(c.criteria));
  const GraphDatabase db = testutil::RandomDatabase(&rng, 14, 8, 3, 3, 2);

  GSpanMiner gspan;
  MinerOptions full;
  full.min_support = c.min_support;
  const PatternSet expected = gspan.Mine(db, full);

  PartMinerOptions options;
  options.min_support_count = c.min_support;
  options.partition.k = c.k;
  options.partition.criteria = c.criteria;
  const PartMinerResult result = MinePaperPipeline(db, options);

  ExpectSamePatterns(expected, result.patterns,
                     "k=" + std::to_string(c.k) +
                         " criteria=" + PartitionCriteriaName(c.criteria));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartMinerEquivalence,
    ::testing::Values(
        PartMinerCase{1, PartitionCriteria::kCombined, 3},
        PartMinerCase{2, PartitionCriteria::kCombined, 3},
        PartMinerCase{2, PartitionCriteria::kIsolation, 3},
        PartMinerCase{2, PartitionCriteria::kMinCut, 3},
        PartMinerCase{2, PartitionCriteria::kMultilevel, 3},
        PartMinerCase{3, PartitionCriteria::kCombined, 3},
        PartMinerCase{4, PartitionCriteria::kCombined, 3},
        PartMinerCase{4, PartitionCriteria::kMinCut, 4},
        PartMinerCase{6, PartitionCriteria::kCombined, 4},
        PartMinerCase{2, PartitionCriteria::kCombined, 2}),
    [](const ::testing::TestParamInfo<PartMinerCase>& info) {
      return std::string("k") + std::to_string(info.param.k) + "_" +
             PartitionCriteriaName(info.param.criteria) + "_sup" +
             std::to_string(info.param.min_support);
    });

TEST(PartMinerTest, SupportFractionResolution) {
  PartMinerOptions options;
  options.min_support_fraction = 0.04;
  EXPECT_EQ(options.ResolveSupport(100), 4);
  EXPECT_EQ(options.ResolveSupport(101), 5);   // ceil.
  EXPECT_EQ(options.ResolveSupport(10), 1);
  options.min_support_count = 7;
  EXPECT_EQ(options.ResolveSupport(100), 7);
}

TEST(PartMinerTest, NodeSupportHalvesPerDepth) {
  for (int depth = 0; depth < 5; ++depth) {
    EXPECT_EQ(NodeSupport(8, depth), std::max(1, 8 >> depth));
  }
  EXPECT_EQ(NodeSupport(5, 1), 3);  // Ceilings compose: 5 -> 3 -> 2.
  EXPECT_EQ(NodeSupport(5, 2), 2);

  // The paper pipeline mines each of its k=4 leaves (depth 2) at 8/4.
  GraphDatabase db;
  Graph g;
  g.AddVertex(0);
  g.AddVertex(0);
  g.AddEdge(0, 1, 0);
  db.Add(g);
  PartMinerOptions options;
  options.min_support_count = 8;
  options.partition.k = 4;
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Start();
  MinePaperPipeline(db, options);
  tracer.Stop();
  std::vector<int64_t> supports;
  for (const obs::TraceEvent& e : tracer.Snapshot()) {
    if (std::string(e.name) != "unit_mine") continue;
    for (const obs::TraceArg& arg : e.args) {
      if (std::string(arg.key) == "support") supports.push_back(arg.number);
    }
  }
  EXPECT_EQ(supports, (std::vector<int64_t>{2, 2, 2, 2}));
}

TEST(PartMinerTest, TimingFieldsPopulated) {
  GeneratorParams params;
  params.num_graphs = 20;
  params.avg_edges = 10;
  params.num_labels = 6;
  params.num_kernels = 10;
  GraphDatabase db = GenerateDatabase(params);
  PartMinerOptions options;
  options.min_support_fraction = 0.3;
  options.partition.k = 3;
  const PartMinerResult r = MinePaperPipeline(db, options);
  EXPECT_EQ(static_cast<int>(r.unit_mining_seconds.size()), 3);
  EXPECT_GE(r.AggregateSeconds(), r.ParallelSeconds());
  EXPECT_GT(r.patterns.size(), 0);
  EXPECT_EQ(r.min_support_count, 6);
  EXPECT_GT(r.merge_stats.inherited_patterns, 0);

  // The resident miner runs only the root sweep.
  PartMiner miner(options);
  const PartMinerResult product = miner.Mine(db);
  EXPECT_EQ(product.partition_seconds, 0);
  EXPECT_TRUE(product.unit_mining_seconds.empty());
  EXPECT_EQ(product.merge_stats.inherited_patterns, 0);
  EXPECT_EQ(miner.partitioned().k(), 0);
  EXPECT_EQ(miner.partitioned().TotalCutEdges(db), 0);
}

TEST(PartMinerTest, ParallelUnitMiningMatchesSerial) {
  Rng rng(91);
  const GraphDatabase db = testutil::RandomDatabase(&rng, 16, 8, 3, 3, 2);
  PartMinerOptions serial, parallel;
  serial.min_support_count = parallel.min_support_count = 3;
  serial.partition.k = parallel.partition.k = 4;
  serial.unit_mining_threads = 0;
  parallel.unit_mining_threads = 4;
  ExpectSamePatterns(MinePaperPipeline(db, serial).patterns,
                     MinePaperPipeline(db, parallel).patterns,
                     "parallel unit mining");
}

/// The paper pipeline's root merge is PartMiner::Mine's sweep without the
/// frontier capture: the same patterns in the same order, with the same
/// supports and TIDs, whatever the partition and the unit-mining pool.
TEST(PartMinerTest, PaperPipelineMatchesMineBitIdentical) {
  Rng rng(57);
  const GraphDatabase db = testutil::RandomDatabase(&rng, 16, 8, 3, 3, 2);
  PartMinerOptions options;
  options.min_support_count = 3;
  PartMiner miner(options);
  const PatternSet expected = miner.Mine(db).patterns;
  ASSERT_GT(expected.size(), 0);

  for (const int k : {1, 2, 3, 4}) {
    for (const int threads : {0, 4}) {
      const std::string what =
          "k=" + std::to_string(k) + " threads=" + std::to_string(threads);
      PartMinerOptions paper = options;
      paper.partition.k = k;
      paper.unit_mining_threads = threads;
      const PatternSet got = MinePaperPipeline(db, paper).patterns;
      ASSERT_EQ(expected.size(), got.size()) << what;
      for (int i = 0; i < expected.size(); ++i) {
        const PatternInfo& a = expected.patterns()[i];
        const PatternInfo& b = got.patterns()[i];
        EXPECT_EQ(a.code.ToString(), b.code.ToString()) << what;
        EXPECT_EQ(a.support, b.support) << what;
        EXPECT_EQ(a.tids, b.tids) << what;
      }
    }
  }
}

TEST(PartMinerTest, MaxEdgesRespected) {
  Rng rng(8);
  const GraphDatabase db = testutil::RandomDatabase(&rng, 10, 8, 3, 3, 2);
  PartMinerOptions options;
  options.min_support_count = 2;
  options.partition.k = 2;
  options.max_edges = 3;
  PartMiner miner(options);
  const PartMinerResult r = miner.Mine(db);
  EXPECT_LE(r.patterns.MaxEdgeCount(), 3);

  GSpanMiner gspan;
  MinerOptions full;
  full.min_support = 2;
  full.max_edges = 3;
  ExpectSamePatterns(gspan.Mine(db, full), r.patterns, "max_edges=3");
}

}  // namespace
}  // namespace partminer
