#include "core/merge_join.h"

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "datagen/generator.h"
#include "datagen/update_generator.h"
#include "graph/canonical.h"
#include "miner/extensions.h"
#include "miner/gspan.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace partminer {
namespace {

TEST(FrequentSingleEdgesTest, CountsPerGraphOnce) {
  GraphDatabase db;
  {
    Graph g;  // Two parallel-labeled 0-1 edges via a path 0-1-0.
    g.AddVertex(0);
    g.AddVertex(1);
    g.AddVertex(0);
    g.AddEdge(0, 1, 7);
    g.AddEdge(1, 2, 7);
    db.Add(g);
  }
  {
    Graph g;
    g.AddVertex(1);
    g.AddVertex(0);
    g.AddEdge(0, 1, 7);
    db.Add(g);
  }
  const PatternSet edges = FrequentSingleEdges(db, 2);
  ASSERT_EQ(edges.size(), 1);
  const PatternInfo& p = edges.patterns()[0];
  EXPECT_EQ(p.support, 2);  // Per-graph dedup: graph 0 counts once.
  EXPECT_EQ(p.code[0], (DfsEdge{0, 1, 0, 7, 1}));
  EXPECT_EQ(p.tids.ToVector(), (std::vector<int>{0, 1}));
}

TEST(GenerateExtensionsTest, ExtendsEdgeToAllTwoEdgePatterns) {
  // Vocabulary: single frequent edge (0)-[5]-(0).
  PatternSet vocab;
  PatternInfo edge;
  edge.code.Append({0, 1, 0, 5, 0});
  edge.support = 1;
  vocab.Upsert(edge);

  Graph pattern = edge.code.ToGraph();
  const std::vector<DfsCode> ext = GenerateExtensions(pattern, vocab);
  // From a single 0-0 edge: attach a new 0-vertex to either endpoint (one
  // canonical result: the 3-path). No closing possible (would duplicate).
  ASSERT_EQ(ext.size(), 1u);
  EXPECT_EQ(ext[0].size(), 2u);
}

TEST(GenerateExtensionsTest, ClosesTriangles) {
  PatternSet vocab;
  PatternInfo edge;
  edge.code.Append({0, 1, 0, 5, 0});
  vocab.Upsert(edge);

  // Pattern: path of 3 vertices labeled 0 with edges 5.
  Graph path;
  path.AddVertex(0);
  path.AddVertex(0);
  path.AddVertex(0);
  path.AddEdge(0, 1, 5);
  path.AddEdge(1, 2, 5);
  const std::vector<DfsCode> ext = GenerateExtensions(path, vocab);
  // Extensions: 4-path, star (branch at middle), triangle.
  std::set<std::string> kinds;
  for (const DfsCode& c : ext) kinds.insert(c.ToString());
  EXPECT_EQ(ext.size(), 3u);
  bool has_cycle = false;
  for (const DfsCode& c : ext) {
    if (c.VertexCount() == 3 && c.size() == 3) has_cycle = true;
  }
  EXPECT_TRUE(has_cycle);
}

/// Property behind Theorem 1/3: the merge at a node recovers exactly the
/// gSpan result on the node's recombined database — same patterns, same
/// supports, same TIDs.
TEST(MergeJoinTest, LosslessRecoveryAgainstGSpan) {
  Rng rng(606);
  for (int trial = 0; trial < 6; ++trial) {
    const GraphDatabase db = testutil::RandomDatabase(&rng, 10, 8, 3, 3, 2);
    const int sup = 3;

    GSpanMiner miner;
    MergeJoinOptions mj;
    mj.min_support = sup;
    MergeJoinStats stats;
    const PatternSet merged =
        MergeJoin(db, mj, &stats, /*frontier_out=*/nullptr);

    MinerOptions full;
    full.min_support = sup;
    const PatternSet expected = miner.Mine(db, full);

    EXPECT_EQ(expected.SortedCodeStrings(), merged.SortedCodeStrings())
        << "trial " << trial;
    for (const PatternInfo& p : expected.patterns()) {
      const PatternInfo* q = merged.Find(p.code);
      ASSERT_NE(q, nullptr) << "trial " << trial;
      EXPECT_EQ(p.support, q->support);
      EXPECT_EQ(p.tids, q->tids);
    }
  }
}

/// IncMergeJoin recovers the exact post-update pattern set from the cached
/// pre-update set, and the known-pattern skip actually skips counting.
TEST(IncMergeJoinTest, DeltaRecoveryAgainstGSpan) {
  Rng rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    GraphDatabase db = testutil::RandomDatabase(&rng, 12, 8, 3, 3, 2);
    const int sup = 3;
    GSpanMiner miner;
    MinerOptions options;
    options.min_support = sup;
    NodeFrontier initial_frontier;
    initial_frontier.valid = true;
    options.capture_frontier = &initial_frontier.map;
    const PatternSet cached = miner.Mine(db, options);
    options.capture_frontier = nullptr;

    // Mutate a few graphs: relabel one vertex each.
    std::vector<int> updated;
    for (int gi = 0; gi < db.size(); gi += 4) {
      Graph& g = db.mutable_graph(gi);
      const VertexId v = static_cast<VertexId>(rng.Uniform(g.VertexCount()));
      g.set_vertex_label(v, static_cast<Label>(rng.Uniform(3)));
      updated.push_back(gi);
    }

    const PatternSet expected = miner.Mine(db, options);
    for (const double delta_threshold : {1.0, 0.0}) {
      // 1.0 forces the update-proportional delta sweep; 0.0 forces the
      // exact re-sweep. Both must produce identical exact results.
      MergeJoinOptions mj;
      mj.min_support = sup;
      mj.delta_sweep_max_fraction = delta_threshold;
      MergeJoinStats stats;
      NodeFrontier frontier = initial_frontier;
      const PatternSet incremental =
          IncMergeJoin(db, cached, updated, mj, &stats, &frontier);

      EXPECT_EQ(expected.SortedCodeStrings(), incremental.SortedCodeStrings())
          << "trial " << trial << " threshold " << delta_threshold;
      for (const PatternInfo& p : expected.patterns()) {
        const PatternInfo* q = incremental.Find(p.code);
        ASSERT_NE(q, nullptr);
        EXPECT_EQ(p.support, q->support) << p.code.ToString();
        EXPECT_EQ(p.tids, q->tids) << p.code.ToString();
      }
      if (delta_threshold == 1.0) {
        EXPECT_EQ(stats.delta_recounts, cached.size());
      }
    }
  }
}

TEST(IncMergeJoinTest, NoUpdatesIsCheapIdentity) {
  Rng rng(123);
  const GraphDatabase db = testutil::RandomDatabase(&rng, 10, 8, 3, 3, 2);
  GSpanMiner miner;
  MinerOptions options;
  options.min_support = 3;
  const PatternSet cached = miner.Mine(db, options);

  MergeJoinOptions mj;
  mj.min_support = 3;
  MergeJoinStats stats;
  const PatternSet result = IncMergeJoin(db, cached, {}, mj, &stats, nullptr);
  EXPECT_EQ(cached.SortedCodeStrings(), result.SortedCodeStrings());
  // Nothing was updated: the discovery sweep generates no candidates.
  EXPECT_EQ(stats.candidates_generated, 0);
  EXPECT_EQ(stats.candidates_counted, 0);
}

/// One mined state plus a round of add-only edits (adding edges never
/// removes an occurrence, so every cached pattern stays frequent).
struct KnownVerdictCase {
  GraphDatabase db;
  PatternSet cached;
  NodeFrontier frontier;
  std::vector<int> updated;
  MergeJoinOptions mj;

  explicit KnownVerdictCase(double fraction_graphs) {
    GeneratorParams params;
    params.num_graphs = 60;
    params.avg_edges = 12;
    params.num_labels = 5;
    params.num_kernels = 10;
    params.avg_kernel_edges = 4;
    params.seed = 41;
    db = GenerateDatabase(params);
    mj.min_support = 6;
    cached = MergeJoin(db, mj, /*stats=*/nullptr, &frontier);

    UpdateOptions upd;
    upd.fraction_graphs = fraction_graphs;
    upd.kinds = {UpdateKind::kAddEdge, UpdateKind::kAddVertex};
    upd.seed = 5;
    updated = ApplyUpdates(&db, params.num_labels, upd).updated_graphs;
  }

  /// Runs IncMergeJoin, checks it against gSpan, and returns how many
  /// IsMinimalDfsCode calls it made.
  int64_t RunCountingChecks(MergeJoinStats* stats) {
    obs::Counter* checks = obs::MetricRegistry::Global().GetCounter(
        "miner.minimality_checks");
    const int64_t before = checks->value();
    const PatternSet result =
        IncMergeJoin(db, cached, updated, mj, stats, &frontier);
    const int64_t calls = checks->value() - before;

    GSpanMiner gspan;
    MinerOptions options;
    options.min_support = mj.min_support;
    EXPECT_EQ(gspan.Mine(db, options).SortedCodeStrings(),
              result.SortedCodeStrings());
    return calls;
  }
};

/// A delta round knows every cached code is minimal, and that a frontier
/// code already frequent outside the updated graphs is not: it tests far
/// fewer codes than the still-frequent cached patterns it re-reaches.
TEST(IncMergeJoinTest, DeltaRoundTestsOnlyUnknownVerdicts) {
  KnownVerdictCase c(/*fraction_graphs=*/0.05);
  ASSERT_LE(c.updated.size(), 0.15 * c.db.size());  // The delta path.
  MergeJoinStats stats;
  const int64_t calls = c.RunCountingChecks(&stats);
  ASSERT_GT(stats.candidates_skipped_known, 0);
  EXPECT_LT(calls, stats.candidates_skipped_known);
}

/// A re-sweep knows the cached codes are minimal: it tests fewer codes than
/// the cached multi-edge patterns it re-emits.
TEST(IncMergeJoinTest, ResweepTestsOnlyUnknownVerdicts) {
  KnownVerdictCase c(/*fraction_graphs=*/0.4);
  ASSERT_GT(c.updated.size(), 0.15 * c.db.size());  // The re-sweep path.
  int64_t multi_edge = 0;
  for (const PatternInfo& p : c.cached.patterns()) {
    if (p.code.size() > 1) ++multi_edge;
  }
  ASSERT_GT(multi_edge, 0);
  MergeJoinStats stats;
  EXPECT_LT(c.RunCountingChecks(&stats), multi_edge);
}

}  // namespace
}  // namespace partminer
