#include "miner/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "common/random.h"
#include "graph/canonical.h"
#include "tests/test_util.h"

namespace partminer {
namespace {

TEST(EngineTest, RightmostPathPositions) {
  // Code: (0,1)(1,2)(2,0)(1,3) — rightmost path edges are positions 0
  // ((0,1)) and 3 ((1,3)); position 1's target left the path.
  DfsCode code;
  code.Append({0, 1, 0, 0, 0});
  code.Append({1, 2, 0, 0, 0});
  code.Append({2, 0, 0, 0, 0});
  code.Append({1, 3, 0, 0, 0});
  const std::vector<int> rmpath = engine::BuildRightmostPathPositions(code);
  ASSERT_EQ(rmpath.size(), 2u);
  EXPECT_EQ(rmpath[0], 3);  // Deepest first.
  EXPECT_EQ(rmpath[1], 0);
}

TEST(EngineTest, RootExtensionsCanonicalOrientation) {
  GraphDatabase db;
  Graph g;
  g.AddVertex(2);
  g.AddVertex(1);
  g.AddEdge(0, 1, 5);
  db.Add(g);
  engine::ExtensionMap roots = engine::CollectRootExtensions(db, {0});
  ASSERT_EQ(roots.size(), 1u);
  const DfsEdge& tuple = roots.begin()->first;
  EXPECT_EQ(tuple.from_label, 1);  // Smaller label first.
  EXPECT_EQ(tuple.to_label, 2);
  EXPECT_EQ(roots.begin()->second.size(), 1u);
}

TEST(EngineTest, RootExtensionsSymmetricLabelsBothOrientations) {
  GraphDatabase db;
  Graph g;
  g.AddVertex(3);
  g.AddVertex(3);
  g.AddEdge(0, 1, 0);
  db.Add(g);
  engine::ExtensionMap roots = engine::CollectRootExtensions(db, {0});
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots.begin()->second.size(), 2u);  // Both half-edges.
}

TEST(EngineTest, RootExtensionsOverListedGraphsRestrictTheFullScan) {
  // The delta sweep's root scan: the groups over a list of graphs are the
  // full scan's groups with only the embeddings in those graphs, in the
  // same order, which is database order; a tuple found nowhere in them has
  // no group.
  Rng rng(303);
  for (int trial = 0; trial < 5; ++trial) {
    const GraphDatabase db = testutil::RandomDatabase(&rng, 10, 6, 3, 3, 2);
    std::vector<int> listed;
    for (int i = 0; i < db.size(); ++i) {
      if (rng.Bernoulli(0.3)) listed.push_back(i);
    }
    std::vector<engine::ExtensionMap::Entry> expected;
    for (const auto& [tuple, projected] :
         engine::CollectRootExtensions(db, testutil::AllGraphs(db))) {
      engine::Projected kept;
      for (const engine::Embedding& e : projected) {
        if (std::binary_search(listed.begin(), listed.end(), e.graph_index)) {
          kept.push_back(e);
        }
      }
      if (!kept.empty()) expected.emplace_back(tuple, std::move(kept));
    }
    const engine::ExtensionMap roots =
        engine::CollectRootExtensions(db, listed);
    ASSERT_EQ(roots.size(), expected.size());
    size_t g = 0;
    for (const auto& [tuple, projected] : roots) {
      EXPECT_EQ(tuple, expected[g].first);
      ASSERT_EQ(projected.size(), expected[g].second.size());
      for (size_t e = 0; e < projected.size(); ++e) {
        EXPECT_EQ(projected[e].graph_index,
                  expected[g].second[e].graph_index);
        EXPECT_EQ(projected[e].edge, expected[g].second[e].edge);
        EXPECT_EQ(projected[e].prev, nullptr);
        if (e > 0) {
          EXPECT_LE(projected[e - 1].graph_index, projected[e].graph_index);
        }
      }
      ++g;
    }
  }
  const GraphDatabase db = testutil::RandomDatabase(&rng, 4, 5, 2, 2, 2);
  EXPECT_TRUE(engine::CollectRootExtensions(db, {}).empty());
}

TEST(EngineTest, SupportAndTidsDedupPerGraph) {
  engine::Projected projected;
  EdgeEntry dummy{0, 1, 0, 0};
  projected.push_back({0, &dummy, nullptr});
  projected.push_back({0, &dummy, nullptr});
  projected.push_back({2, &dummy, nullptr});
  EXPECT_EQ(engine::SupportOf(projected), 2);
  EXPECT_EQ(engine::TidSetOf(projected).ToVector(),
            (std::vector<int>{0, 2}));
}

TEST(EngineTest, ExtensionsMatchFreshProjection) {
  // Property: extending a pattern via CollectExtensions on its ProjectCode
  // embeddings gives the same support as projecting the extended code from
  // scratch, for every frequent extension of random databases.
  Rng rng(404);
  for (int trial = 0; trial < 5; ++trial) {
    const GraphDatabase db = testutil::RandomDatabase(&rng, 8, 7, 3, 3, 2);
    const std::vector<int> all = testutil::AllGraphs(db);
    engine::ExtensionMap roots = engine::CollectRootExtensions(db, all);
    for (const auto& [tuple, projected] : roots) {
      DfsCode code;
      code.Append(tuple);
      engine::ExtensionMap extensions = engine::CollectExtensions(
          db, code, projected, /*enable_order_pruning=*/false);
      for (const auto& [ext, child_projected] : extensions) {
        DfsCode extended = code;
        extended.Append(ext);
        std::deque<engine::Embedding> arena;
        const engine::Projected fresh =
            engine::ProjectCode(extended, db, all, &arena);
        EXPECT_EQ(engine::SupportOf(child_projected),
                  engine::SupportOf(fresh))
            << extended.ToString();
        EXPECT_EQ(engine::TidSetOf(child_projected).ToVector(),
                  engine::TidSetOf(fresh).ToVector())
            << extended.ToString();
      }
    }
  }
}

TEST(EngineTest, OrderPruningOnlyDropsNonMinimalExtensions) {
  // Every extension group dropped by the order prunings must produce a
  // non-minimal code — otherwise the pruning would lose patterns.
  Rng rng(505);
  for (int trial = 0; trial < 5; ++trial) {
    const GraphDatabase db = testutil::RandomDatabase(&rng, 6, 6, 3, 2, 2);
    engine::ExtensionMap roots =
        engine::CollectRootExtensions(db, testutil::AllGraphs(db));
    for (const auto& [tuple, projected] : roots) {
      DfsCode code;
      code.Append(tuple);
      std::vector<DfsEdge> kept;
      for (const auto& [ext, child_projected] :
           engine::CollectExtensions(db, code, projected, true)) {
        kept.push_back(ext);
      }
      for (const auto& [ext, child_projected] :
           engine::CollectExtensions(db, code, projected, false)) {
        if (std::find(kept.begin(), kept.end(), ext) != kept.end()) continue;
        DfsCode extended = code;
        extended.Append(ext);
        EXPECT_FALSE(IsMinimalDfsCode(extended))
            << "pruning dropped minimal " << extended.ToString();
      }
    }
  }
}

TEST(ProjectCodeTest, EnumeratesAllEmbeddings) {
  // Triangle with uniform labels: 6 automorphic embeddings of its own code.
  Graph triangle;
  triangle.AddVertex(0);
  triangle.AddVertex(0);
  triangle.AddVertex(0);
  triangle.AddEdge(0, 1, 0);
  triangle.AddEdge(1, 2, 0);
  triangle.AddEdge(2, 0, 0);
  GraphDatabase db;
  db.Add(triangle);

  DfsCode code;
  code.Append({0, 1, 0, 0, 0});
  code.Append({1, 2, 0, 0, 0});
  code.Append({2, 0, 0, 0, 0});
  std::deque<engine::Embedding> arena;
  const engine::Projected projected =
      engine::ProjectCode(code, db, {0}, &arena);
  EXPECT_EQ(projected.size(), 6u);
  EXPECT_EQ(engine::SupportOf(projected), 1);

  // A single-edge code in the triangle: 6 oriented embeddings.
  DfsCode edge;
  edge.Append({0, 1, 0, 0, 0});
  std::deque<engine::Embedding> arena2;
  EXPECT_EQ(engine::ProjectCode(edge, db, {0}, &arena2).size(), 6u);
}

TEST(ProjectCodeTest, RespectsGraphRestriction) {
  GraphDatabase db;
  for (int i = 0; i < 3; ++i) {
    Graph g;
    g.AddVertex(0);
    g.AddVertex(1);
    g.AddEdge(0, 1, 0);
    db.Add(g);
  }
  DfsCode edge;
  edge.Append({0, 1, 0, 0, 1});
  std::deque<engine::Embedding> arena;
  const engine::Projected projected =
      engine::ProjectCode(edge, db, {0, 2}, &arena);
  EXPECT_EQ(engine::TidSetOf(projected).ToVector(),
            (std::vector<int>{0, 2}));
}

}  // namespace
}  // namespace partminer
