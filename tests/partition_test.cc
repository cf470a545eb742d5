#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "datagen/generator.h"
#include "datagen/update_generator.h"
#include "graph/canonical.h"
#include "partition/db_partition.h"
#include "partition/graph_part.h"
#include "partition/multilevel.h"
#include "tests/test_util.h"

namespace partminer {
namespace {

TEST(GraphPartTest, TrivialGraphs) {
  Graph empty;
  EXPECT_TRUE(GraphPart(empty, GraphPartOptions{}).side.empty());

  Graph one;
  one.AddVertex(0);
  const Bisection b = GraphPart(one, GraphPartOptions{});
  EXPECT_EQ(b.side, (std::vector<int>{0}));
}

TEST(GraphPartTest, BalancedHalves) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = testutil::RandomConnectedGraph(&rng, 10, 5, 3, 2);
    const Bisection b = GraphPart(g, GraphPartOptions{1.0, 1.0});
    int side0 = 0;
    for (const int s : b.side) side0 += (s == 0);
    EXPECT_EQ(side0, 5);  // DFSScan collects exactly |V|/2 vertices.
  }
}

TEST(GraphPartTest, IsolationCriterionGroupsHotVertices) {
  // A path of 8 vertices with the 4 hottest at one end: lambda=(1,0) must
  // put all hot vertices on side 0.
  Graph g;
  for (int i = 0; i < 8; ++i) g.AddVertex(0);
  for (int i = 0; i < 7; ++i) g.AddEdge(i, i + 1, 0);
  for (int i = 0; i < 4; ++i) g.set_update_freq(i, 10);
  const Bisection b = GraphPart(g, GraphPartOptions{1.0, 0.0});
  for (int i = 0; i < 4; ++i) EXPECT_EQ(b.side[i], 0) << i;
  for (int i = 4; i < 8; ++i) EXPECT_EQ(b.side[i], 1) << i;
}

TEST(GraphPartTest, MinCutCriterionFindsNarrowCut) {
  // Two 5-cliques joined by a single bridge: (0,1) must cut only the bridge.
  Graph g;
  for (int i = 0; i < 10; ++i) g.AddVertex(0);
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) {
      g.AddEdge(a, b, 0);
      g.AddEdge(5 + a, 5 + b, 0);
    }
  }
  g.AddEdge(4, 5, 0);
  const Bisection b = GraphPart(g, GraphPartOptions{0.0, 1.0});
  EXPECT_EQ(b.cut_edges, 1);
}

TEST(GraphPartTest, SplitWithConnectiveEdgesCoversEveryEdge) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = testutil::RandomConnectedGraph(&rng, 9, 4, 3, 2);
    const Bisection b = GraphPart(g, GraphPartOptions{1.0, 1.0});
    const auto [g1, g2] = SplitWithConnectiveEdges(g, b.side);
    // Connective edges are duplicated: totals add up with the cut counted
    // twice (Section 4.1).
    EXPECT_EQ(g1.EdgeCount() + g2.EdgeCount(), g.EdgeCount() + b.cut_edges);
    EXPECT_EQ(CountCutEdges(g, b.side), b.cut_edges);
  }
}

TEST(MultilevelTest, FindsNarrowCutOnDumbbell) {
  Graph g;
  for (int i = 0; i < 16; ++i) g.AddVertex(0);
  for (int a = 0; a < 8; ++a) {
    for (int b = a + 1; b < 8; ++b) {
      g.AddEdge(a, b, 0);
      g.AddEdge(8 + a, 8 + b, 0);
    }
  }
  g.AddEdge(7, 8, 0);
  const std::vector<int> side = MultilevelBisect(g, MultilevelOptions{});
  EXPECT_EQ(CountCutEdges(g, side), 1);
}

TEST(MultilevelTest, ProducesTwoNonEmptySides) {
  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = testutil::RandomConnectedGraph(&rng, 20, 10, 3, 2);
    const std::vector<int> side = MultilevelBisect(g, MultilevelOptions{});
    int side0 = 0;
    for (const int s : side) side0 += (s == 0);
    EXPECT_GT(side0, 0);
    EXPECT_LT(side0, 20);
  }
}

TEST(PartitionedDatabaseTest, UnitsCoverEveryEdge) {
  Rng rng(5);
  const GraphDatabase db = testutil::RandomDatabase(&rng, 10, 9, 4, 3, 2);
  for (const int k : {2, 3, 4, 6}) {
    PartitionOptions options;
    options.k = k;
    const PartitionedDatabase part = PartitionedDatabase::Create(db, options);
    // Root materialization reproduces each graph exactly (same canonical
    // code) — the lossless-recovery precondition of Theorem 1.
    const GraphDatabase root = part.Materialize(db, 0, k);
    ASSERT_EQ(root.size(), db.size());
    for (int i = 0; i < db.size(); ++i) {
      EXPECT_EQ(root.graph(i).EdgeCount(), db.graph(i).EdgeCount());
      EXPECT_EQ(MinimumDfsCode(root.graph(i)), MinimumDfsCode(db.graph(i)));
    }
    // Unit edge counts: every edge in >=1 unit; cut edges in exactly 2.
    int64_t unit_edges = 0;
    for (int j = 0; j < k; ++j) {
      unit_edges += part.MaterializeUnit(db, j).TotalEdges();
    }
    EXPECT_EQ(unit_edges, db.TotalEdges() + part.TotalCutEdges(db));
  }
}

TEST(PartitionedDatabaseTest, MergeTreeShape) {
  GraphDatabase db;
  db.Add(Graph(1));
  for (const int k : {1, 2, 3, 5, 6, 8}) {
    PartitionOptions options;
    options.k = k;
    const PartitionedDatabase part = PartitionedDatabase::Create(db, options);
    const auto& tree = part.tree();
    EXPECT_EQ(tree[0].lo, 0);
    EXPECT_EQ(tree[0].hi, k);
    int leaves = 0;
    std::set<int> seen_units;
    for (const MergeTreeNode& node : tree) {
      if (node.left == -1) {
        EXPECT_EQ(node.hi - node.lo, 1);
        seen_units.insert(node.lo);
        ++leaves;
      } else {
        EXPECT_EQ(tree[node.left].lo, node.lo);
        EXPECT_EQ(tree[node.right].hi, node.hi);
        EXPECT_EQ(tree[node.left].hi, tree[node.right].lo);
      }
    }
    EXPECT_EQ(leaves, k);
    EXPECT_EQ(static_cast<int>(seen_units.size()), k);
  }
}

TEST(PartitionedDatabaseTest, TouchedUnitsCoverChangedEdges) {
  GeneratorParams params;
  params.num_graphs = 12;
  params.avg_edges = 12;
  params.num_labels = 5;
  params.num_kernels = 10;
  params.seed = 9;
  GraphDatabase db = GenerateDatabase(params);
  AssignUpdateHotspots(&db, 0.2, 10);

  PartitionOptions options;
  options.k = 4;
  PartitionedDatabase part = PartitionedDatabase::Create(db, options);

  // Snapshot unit databases, apply updates, and verify that every unit
  // whose materialization changed is flagged by TouchedUnits.
  std::vector<GraphDatabase> before;
  for (int j = 0; j < options.k; ++j) {
    before.push_back(part.MaterializeUnit(db, j));
  }
  UpdateOptions upd;
  upd.fraction_graphs = 0.5;
  upd.seed = 77;
  const UpdateLog log = ApplyUpdates(&db, params.num_labels, upd);
  part.ExtendAssignments(db);
  const SetWord touched = part.TouchedUnits(db, log.touched_vertices);

  for (int j = 0; j < options.k; ++j) {
    const GraphDatabase after = part.MaterializeUnit(db, j);
    // Materialize is deterministic, so a structural dump comparison detects
    // any change (unit subgraphs may be disconnected, so canonical codes are
    // not applicable here).
    bool changed = false;
    for (int i = 0; i < db.size() && !changed; ++i) {
      if (before[j].graph(i).DebugString() != after.graph(i).DebugString()) {
        changed = true;
      }
    }
    if (changed) {
      EXPECT_TRUE(touched.Test(j)) << "unit " << j << " changed but untouched";
    }
  }
  EXPECT_FALSE(touched.Empty());
}

TEST(PartitionedDatabaseTest, SurgicalUpdateTouchesFewerThanKUnits) {
  GeneratorParams params;
  params.num_graphs = 20;
  params.avg_edges = 10;
  params.num_labels = 5;
  params.num_kernels = 8;
  params.avg_kernel_edges = 3;
  params.seed = 13;
  GraphDatabase db = GenerateDatabase(params);
  AssignUpdateHotspots(&db, 0.2, 14);
  PartitionOptions options;
  options.k = 4;
  const PartitionedDatabase part = PartitionedDatabase::Create(db, options);

  // One surgical update: relabel a degree-1 vertex of graph 0. The touched
  // units are at most {unit(v), unit(neighbor)} — strictly fewer than k.
  Graph& g0 = db.mutable_graph(0);
  VertexId leaf = -1;
  for (VertexId v = 0; v < g0.VertexCount(); ++v) {
    if (g0.Degree(v) == 1) {
      leaf = v;
      break;
    }
  }
  ASSERT_NE(leaf, -1) << "expected a degree-1 vertex in the first graph";
  g0.set_vertex_label(leaf, g0.vertex_label(leaf) + 100);
  const SetWord touched = part.TouchedUnits(db, {{0, leaf}});
  EXPECT_GT(touched.Count(), 0);
  EXPECT_LT(touched.Count(), 4) << "expected at least one unit untouched";
}

TEST(PartitionedDatabaseTest, TotalCutEdgesOfEmptyPartitionIsZero) {
  Rng rng(31);
  GraphDatabase db;
  db.Add(testutil::RandomConnectedGraph(&rng, 6, 3, 2, 2));
  const PartitionedDatabase empty;
  EXPECT_EQ(empty.TotalCutEdges(db), 0);
  EXPECT_EQ(empty.TotalCutEdges(GraphDatabase()), 0);
}

TEST(PartitionedDatabaseTest, TotalCutEdgesChecksDatabaseSize) {
  Rng rng(32);
  GraphDatabase db;
  for (int i = 0; i < 3; ++i) {
    db.Add(testutil::RandomConnectedGraph(&rng, 6, 3, 2, 2));
  }
  PartitionOptions options;
  options.k = 2;
  const PartitionedDatabase part = PartitionedDatabase::Create(db, options);
  GraphDatabase fewer;
  fewer.Add(db.graph(0));
  EXPECT_DEATH(part.TotalCutEdges(fewer), "Check failed");
}

TEST(PartitionedDatabaseTest, IsolationCriteriaReduceTouchedUnits) {
  // With hotspots concentrated, Partition1/3 should route updates into
  // fewer units on average than pure min-cut partitioning.
  GeneratorParams params;
  params.num_graphs = 30;
  params.avg_edges = 16;
  params.num_labels = 6;
  params.num_kernels = 15;
  params.seed = 4;
  GraphDatabase base = GenerateDatabase(params);
  AssignUpdateHotspots(&base, 0.15, 11);

  auto average_touched = [&](PartitionCriteria criteria) {
    GraphDatabase db = base;  // Fresh copy per criteria.
    PartitionOptions options;
    options.k = 4;
    options.criteria = criteria;
    PartitionedDatabase part = PartitionedDatabase::Create(db, options);
    UpdateOptions upd;
    upd.fraction_graphs = 0.8;
    upd.seed = 123;
    const UpdateLog log = ApplyUpdates(&db, params.num_labels, upd);
    part.ExtendAssignments(db);
    return part.AverageTouchedUnits(db, log.touched_vertices);
  };

  const double isolation = average_touched(PartitionCriteria::kIsolation);
  const double combined = average_touched(PartitionCriteria::kCombined);
  const double metis = average_touched(PartitionCriteria::kMultilevel);
  // The update-aware criteria should not be worse than topology-only METIS.
  EXPECT_LE(isolation, metis + 0.25);
  EXPECT_LE(combined, metis + 0.25);
}

}  // namespace
}  // namespace partminer
