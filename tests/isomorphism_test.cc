#include "graph/isomorphism.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/graph.h"
#include "tests/test_util.h"

namespace partminer {
namespace {

Graph PathGraph(std::initializer_list<Label> vlabels,
                std::initializer_list<Label> elabels) {
  Graph g;
  for (const Label l : vlabels) g.AddVertex(l);
  int v = 0;
  for (const Label l : elabels) {
    g.AddEdge(v, v + 1, l);
    ++v;
  }
  return g;
}

TEST(IsomorphismTest, SingleEdgeMatch) {
  const Graph host = PathGraph({0, 1, 2}, {5, 6});
  EXPECT_TRUE(ContainsSubgraph(host, PathGraph({0, 1}, {5})));
  EXPECT_TRUE(ContainsSubgraph(host, PathGraph({1, 0}, {5})));
  EXPECT_FALSE(ContainsSubgraph(host, PathGraph({0, 1}, {6})));
  EXPECT_FALSE(ContainsSubgraph(host, PathGraph({0, 2}, {5})));
}

TEST(IsomorphismTest, NonInducedSemantics) {
  // Pattern path 0-1-2 embeds in a triangle even though the triangle has an
  // extra edge (subgraph isomorphism is not induced).
  Graph triangle;
  triangle.AddVertex(0);
  triangle.AddVertex(1);
  triangle.AddVertex(2);
  triangle.AddEdge(0, 1, 0);
  triangle.AddEdge(1, 2, 0);
  triangle.AddEdge(2, 0, 0);
  EXPECT_TRUE(ContainsSubgraph(triangle, PathGraph({0, 1, 2}, {0, 0})));
}

TEST(IsomorphismTest, InjectivityRequired) {
  // Pattern a-b-a needs two distinct 'a' vertices.
  const Graph pattern = PathGraph({0, 1, 0}, {0, 0});
  const Graph host_ok = PathGraph({0, 1, 0}, {0, 0});
  const Graph host_small = PathGraph({0, 1}, {0});
  EXPECT_TRUE(ContainsSubgraph(host_ok, pattern));
  EXPECT_FALSE(ContainsSubgraph(host_small, pattern));
}

TEST(IsomorphismTest, CycleInPath) {
  // A triangle pattern cannot embed in a path of the same labels.
  Graph triangle;
  triangle.AddVertex(0);
  triangle.AddVertex(0);
  triangle.AddVertex(0);
  triangle.AddEdge(0, 1, 0);
  triangle.AddEdge(1, 2, 0);
  triangle.AddEdge(2, 0, 0);
  const Graph path = PathGraph({0, 0, 0, 0}, {0, 0, 0});
  EXPECT_FALSE(ContainsSubgraph(path, triangle));
  EXPECT_TRUE(ContainsSubgraph(triangle, triangle));
}

TEST(IsomorphismTest, EverySubgraphOfItselfMatches) {
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    const Graph g = testutil::RandomConnectedGraph(&rng, 8, 4, 3, 2);
    EXPECT_TRUE(ContainsSubgraph(g, g));
    EXPECT_TRUE(ContainsSubgraph(g, testutil::Permuted(&rng, g)));
  }
}

TEST(IsomorphismTest, SupportCounting) {
  GraphDatabase db;
  db.Add(PathGraph({0, 1, 2}, {0, 0}));   // Contains 0-1.
  db.Add(PathGraph({0, 1}, {0}));         // Contains 0-1.
  db.Add(PathGraph({2, 1}, {0}));         // Does not.
  const SubgraphMatcher matcher(PathGraph({0, 1}, {0}));
  std::vector<int> tids;
  for (int i = 0; i < db.size(); ++i) {
    if (matcher.Matches(db.graph(i))) tids.push_back(i);
  }
  EXPECT_EQ(tids, (std::vector<int>{0, 1}));
}

TEST(IsomorphismTest, LargerPatternThanHostFailsFast) {
  const Graph host = PathGraph({0, 1}, {0});
  const Graph pattern = PathGraph({0, 1, 0, 1}, {0, 0, 0});
  EXPECT_FALSE(ContainsSubgraph(host, pattern));
}

}  // namespace
}  // namespace partminer
