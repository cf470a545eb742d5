#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/canonical.h"
#include "miner/brute_force.h"
#include "miner/gaston.h"
#include "miner/gspan.h"
#include "tests/test_util.h"

namespace partminer {
namespace {

using testutil::ExpectSamePatterns;

GraphDatabase TinyDatabase() {
  // Three small graphs sharing a frequent a-x-b edge and a triangle motif.
  GraphDatabase db;
  {
    Graph g;  // Triangle 0-1-2 labels (0,1,2), edges all label 0.
    g.AddVertex(0);
    g.AddVertex(1);
    g.AddVertex(2);
    g.AddEdge(0, 1, 0);
    g.AddEdge(1, 2, 0);
    g.AddEdge(2, 0, 0);
    db.Add(g);
  }
  {
    Graph g;  // Path 0-1-2 with same labels.
    g.AddVertex(0);
    g.AddVertex(1);
    g.AddVertex(2);
    g.AddEdge(0, 1, 0);
    g.AddEdge(1, 2, 0);
    db.Add(g);
  }
  {
    Graph g;  // Single edge 0-1.
    g.AddVertex(0);
    g.AddVertex(1);
    g.AddEdge(0, 1, 0);
    db.Add(g);
  }
  return db;
}

TEST(GSpanTest, TinyDatabaseSupports) {
  GSpanMiner miner;
  MinerOptions options;
  options.min_support = 2;
  const PatternSet result = miner.Mine(TinyDatabase(), options);

  // Edge (0)-(1): in all three graphs.
  DfsCode edge01;
  edge01.Append({0, 1, 0, 0, 1});
  const PatternInfo* p = result.Find(edge01);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->support, 3);
  EXPECT_EQ(p->tids.ToVector(), (std::vector<int>{0, 1, 2}));

  // Path 0-1-2: in the triangle and the path graph.
  DfsCode path;
  path.Append({0, 1, 0, 0, 1});
  path.Append({1, 2, 1, 0, 2});
  const PatternInfo* q = result.Find(path);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->support, 2);

  // Triangle: support 1, must be absent.
  DfsCode triangle;
  triangle.Append({0, 1, 0, 0, 1});
  triangle.Append({1, 2, 1, 0, 2});
  triangle.Append({2, 0, 2, 0, 0});
  EXPECT_EQ(result.Find(triangle), nullptr);
}

TEST(GSpanTest, MinSupportOneFindsEverything) {
  GSpanMiner miner;
  MinerOptions options;
  options.min_support = 1;
  const PatternSet result = miner.Mine(TinyDatabase(), options);
  BruteForceMiner reference;
  const PatternSet expected = reference.Mine(TinyDatabase(), options);
  ExpectSamePatterns(expected, result, "minsup=1");
}

TEST(GSpanTest, MatchesBruteForceOnRandomDatabases) {
  Rng rng(2024);
  for (int trial = 0; trial < 8; ++trial) {
    const GraphDatabase db = testutil::RandomDatabase(&rng, 8, 6, 2, 2, 2);
    for (const int minsup : {1, 2, 3}) {
      MinerOptions options;
      options.min_support = minsup;
      options.max_edges = 5;
      GSpanMiner gspan;
      BruteForceMiner brute;
      ExpectSamePatterns(brute.Mine(db, options), gspan.Mine(db, options),
                         "trial " + std::to_string(trial) + " minsup " +
                             std::to_string(minsup));
    }
  }
}

TEST(GSpanTest, MaxEdgesBoundsPatternSize) {
  GSpanMiner miner;
  MinerOptions options;
  options.min_support = 1;
  options.max_edges = 2;
  const PatternSet result = miner.Mine(TinyDatabase(), options);
  EXPECT_LE(result.MaxEdgeCount(), 2);
  EXPECT_GT(result.size(), 0);
}

TEST(GastonTest, MatchesGSpanOnRandomDatabases) {
  Rng rng(31337);
  for (int trial = 0; trial < 8; ++trial) {
    const GraphDatabase db = testutil::RandomDatabase(&rng, 8, 7, 3, 3, 2);
    MinerOptions options;
    options.min_support = 2;
    GSpanMiner gspan;
    GastonMiner gaston;
    ExpectSamePatterns(gspan.Mine(db, options), gaston.Mine(db, options),
                       "gaston trial " + std::to_string(trial));
  }
}

TEST(GastonTest, PhaseStatsAccountForAllPatterns) {
  Rng rng(55);
  const GraphDatabase db = testutil::RandomDatabase(&rng, 10, 7, 3, 3, 2);
  MinerOptions options;
  options.min_support = 2;
  GastonMiner gaston;
  const PatternSet result = gaston.Mine(db, options);
  EXPECT_EQ(gaston.stats().TotalFrequent(), result.size());
  // Gaston's observation: paths and trees dominate.
  EXPECT_GT(gaston.stats().frequent_paths, 0);
}

TEST(GastonTest, PathFastCheckMatchesGenericOnRandomPathCodes) {
  // Build random path patterns, compute all their valid codes via
  // permutations of growth, and compare the specialized check with the
  // generic one.
  Rng rng(808);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 2 + static_cast<int>(rng.Uniform(5));
    Graph path;
    path.AddVertex(static_cast<Label>(rng.Uniform(3)));
    for (int i = 1; i < n; ++i) {
      path.AddVertex(static_cast<Label>(rng.Uniform(3)));
      path.AddEdge(i - 1, i, static_cast<Label>(rng.Uniform(2)));
    }
    const DfsCode min_code = MinimumDfsCode(path);
    EXPECT_TRUE(IsMinimalPathCode(min_code)) << min_code.ToString();
    EXPECT_EQ(IsMinimalPathCode(min_code), IsMinimalDfsCode(min_code));
  }
}

TEST(GastonTest, PathFastCheckRejectsNonMinimalWalk) {
  // Path z-a-z: the straight walk from either 'z' endpoint starts (0,1,z,..)
  // but the minimal code roots at the middle 'a' vertex.
  Graph path;
  path.AddVertex(5);  // z
  path.AddVertex(0);  // a
  path.AddVertex(5);  // z
  path.AddEdge(0, 1, 0);
  path.AddEdge(1, 2, 0);

  DfsCode straight;
  straight.Append({0, 1, 5, 0, 0});
  straight.Append({1, 2, 0, 0, 5});
  EXPECT_FALSE(IsMinimalPathCode(straight));
  EXPECT_FALSE(IsMinimalDfsCode(straight));

  DfsCode rooted_mid;
  rooted_mid.Append({0, 1, 0, 0, 5});
  rooted_mid.Append({0, 2, 0, 0, 5});
  EXPECT_TRUE(IsMinimalPathCode(rooted_mid));
  EXPECT_TRUE(IsMinimalDfsCode(rooted_mid));
  EXPECT_EQ(MinimumDfsCode(path), rooted_mid);
}

TEST(BruteForceTest, CountsTriangleOnce) {
  BruteForceMiner miner;
  MinerOptions options;
  options.min_support = 1;
  GraphDatabase db;
  Graph g;
  g.AddVertex(0);
  g.AddVertex(0);
  g.AddVertex(0);
  g.AddEdge(0, 1, 0);
  g.AddEdge(1, 2, 0);
  g.AddEdge(2, 0, 0);
  db.Add(g);
  const PatternSet result = miner.Mine(db, options);
  // Patterns: edge, path-2, triangle -> 3 distinct canonical codes.
  EXPECT_EQ(result.size(), 3);
}

}  // namespace
}  // namespace partminer
