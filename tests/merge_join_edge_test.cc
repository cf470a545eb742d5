// Merge-join boundary coverage: empty units and node databases, single-graph
// units, patterns frequent in every unit, and k larger than the database.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/part_miner.h"
#include "miner/gspan.h"
#include "tests/test_util.h"

namespace partminer {
namespace {

using testutil::ExpectSamePatterns;

/// The exact root merge of `db` at `min_support`, through PartMiner::Mine.
PatternSet MineRoot(const GraphDatabase& db, int min_support) {
  PartMinerOptions options;
  options.min_support_count = min_support;
  return PartMiner(options).Mine(db).patterns;
}

/// A path graph a-b-a with fixed labels, present in every test database so
/// at least one pattern is frequent in every unit.
Graph SharedMotif() {
  Graph g;
  g.AddVertex(1);
  g.AddVertex(2);
  g.AddVertex(1);
  g.AddEdge(0, 1, 0);
  g.AddEdge(1, 2, 0);
  return g;
}

TEST(MergeJoinEdgeTest, EmptyNodeDatabaseYieldsEmptyResult) {
  GraphDatabase empty;
  EXPECT_EQ(MineRoot(empty, 1).size(), 0);
}

TEST(MergeJoinEdgeTest, EmptyChildrenStillRecoverExactly) {
  // Children carry no patterns (e.g. both units mined empty at their reduced
  // support); the node sweep must still recover everything frequent in the
  // recombined database.
  Rng rng(21);
  GraphDatabase db;
  for (int i = 0; i < 6; ++i) db.Add(SharedMotif());
  for (int i = 0; i < 4; ++i) {
    db.Add(testutil::RandomConnectedGraph(&rng, 5, 2, 3, 2));
  }
  const PatternSet result = MineRoot(db, 4);

  GSpanMiner gspan;
  MinerOptions full;
  full.min_support = 4;
  ExpectSamePatterns(gspan.Mine(db, full), result, "empty children");
}

TEST(MergeJoinEdgeTest, SupportAboveDatabaseSizeIsEmpty) {
  GraphDatabase db;
  db.Add(SharedMotif());
  // k larger than the database at this node.
  EXPECT_EQ(MineRoot(db, 2).size(), 0);
}

TEST(MergeJoinEdgeTest, SingleGraphUnitsMergeExactly) {
  // Two units of one graph each: the smallest possible merge. The verified
  // result must equal a direct mining of the two-graph database.
  Rng rng(22);
  GraphDatabase db;
  db.Add(SharedMotif());
  db.Add(testutil::Permuted(&rng, SharedMotif()));

  PartMinerOptions options;
  options.min_support_count = 2;
  options.partition.k = 2;
  const PartMinerResult result = MinePaperPipeline(db, options);

  GSpanMiner gspan;
  MinerOptions full;
  full.min_support = 2;
  ExpectSamePatterns(gspan.Mine(db, full), result.patterns,
                     "single-graph units");
  // The shared motif is frequent in both units and must survive with full
  // support and both TIDs.
  bool found_full_support = false;
  for (const PatternInfo& p : result.patterns.patterns()) {
    if (p.support == 2) found_full_support = true;
  }
  EXPECT_TRUE(found_full_support);
}

TEST(MergeJoinEdgeTest, PatternFrequentInEveryUnitKeepsFullSupport) {
  // Every graph contains the motif, so it is frequent in every unit at the
  // reduced support and must come out of the merges with support == |D|.
  Rng rng(23);
  GraphDatabase db;
  for (int i = 0; i < 12; ++i) db.Add(testutil::Permuted(&rng, SharedMotif()));

  PartMinerOptions options;
  options.min_support_count = 12;
  options.partition.k = 4;
  const PartMinerResult result = MinePaperPipeline(db, options);

  GSpanMiner gspan;
  MinerOptions full;
  full.min_support = 12;
  const PatternSet expected = gspan.Mine(db, full);
  ASSERT_GT(expected.size(), 0);
  ExpectSamePatterns(expected, result.patterns, "frequent everywhere");
  for (const PatternInfo& p : result.patterns.patterns()) {
    EXPECT_EQ(p.support, 12) << p.code.ToString();
    EXPECT_EQ(p.tids.Count(), 12) << p.code.ToString();
  }
}

TEST(MergeJoinEdgeTest, KLargerThanDatabaseLeavesUnitsEmpty) {
  // k = 8 units over a 3-graph database: most units hold no vertices at
  // all. Partitioning, unit mining, and the merge tree must all tolerate
  // genuinely empty units and still produce the exact result.
  Rng rng(24);
  GraphDatabase db;
  for (int i = 0; i < 3; ++i) {
    db.Add(testutil::RandomConnectedGraph(&rng, 4, 1, 2, 2));
  }
  PartMinerOptions options;
  options.min_support_count = 2;
  options.partition.k = 8;
  const PartMinerResult result = MinePaperPipeline(db, options);

  GSpanMiner gspan;
  MinerOptions full;
  full.min_support = 2;
  ExpectSamePatterns(gspan.Mine(db, full), result.patterns, "k > |D|");
}

}  // namespace
}  // namespace partminer
