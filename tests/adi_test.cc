#include <gtest/gtest.h>

#include "adi/adi_miner.h"
#include "common/random.h"
#include "datagen/generator.h"
#include "datagen/update_generator.h"
#include "graph/canonical.h"
#include "miner/gspan.h"
#include "tests/test_util.h"

namespace partminer {
namespace {

using testutil::ExpectSamePatterns;

TEST(AdiIndexTest, RoundTripsGraphsThroughPages) {
  Rng rng(12);
  const GraphDatabase db = testutil::RandomDatabase(&rng, 120, 14, 6, 4, 3);

  AdiMineOptions options;
  options.pool.frames = 2;  // Tiny pool: forces eviction during the scan.
  AdiMine adi(options);
  ASSERT_TRUE(adi.BuildIndex(db).ok());
  EXPECT_GT(adi.index().pages_used(), 2);

  for (int i = 0; i < db.size(); ++i) {
    Graph g;
    ASSERT_TRUE(adi.index().LoadGraph(i, &g).ok()) << i;
    ASSERT_EQ(g.VertexCount(), db.graph(i).VertexCount()) << i;
    ASSERT_EQ(g.EdgeCount(), db.graph(i).EdgeCount()) << i;
    EXPECT_EQ(MinimumDfsCode(g), MinimumDfsCode(db.graph(i))) << i;
  }
  EXPECT_GT(adi.io_stats().evictions, 0);
  EXPECT_GT(adi.io_stats().page_reads, 0);
}

TEST(AdiIndexTest, EdgeTableSupportsMatchSingleEdgeMining) {
  Rng rng(21);
  const GraphDatabase db = testutil::RandomDatabase(&rng, 15, 8, 3, 3, 2);
  AdiMine adi;
  ASSERT_TRUE(adi.BuildIndex(db).ok());

  GSpanMiner gspan;
  MinerOptions options;
  options.min_support = 3;
  options.max_edges = 1;
  const PatternSet edges = gspan.Mine(db, options);
  int frequent_triples = 0;
  for (const auto& [triple, tids] : adi.index().edge_table()) {
    (void)triple;
    if (static_cast<int>(tids.size()) >= 3) ++frequent_triples;
  }
  EXPECT_EQ(frequent_triples, edges.size());
}

TEST(AdiMineTest, MatchesGSpan) {
  Rng rng(31);
  for (int trial = 0; trial < 4; ++trial) {
    const GraphDatabase db = testutil::RandomDatabase(&rng, 12, 8, 3, 3, 2);
    AdiMine adi;
    ASSERT_TRUE(adi.BuildIndex(db).ok());
    MinerOptions options;
    options.min_support = 3;
    GSpanMiner gspan;
    ExpectSamePatterns(gspan.Mine(db, options), adi.Mine(options),
                       "trial " + std::to_string(trial));
  }
}

TEST(AdiMineTest, RebuildReflectsUpdates) {
  GeneratorParams params;
  params.num_graphs = 20;
  params.avg_edges = 10;
  params.num_labels = 5;
  params.num_kernels = 8;
  GraphDatabase db = GenerateDatabase(params);

  AdiMine adi;
  ASSERT_TRUE(adi.BuildIndex(db).ok());
  MinerOptions options;
  options.min_support = 4;
  const PatternSet before = adi.Mine(options);

  UpdateOptions upd;
  upd.fraction_graphs = 0.6;
  upd.seed = 2;
  ApplyUpdates(&db, params.num_labels, upd);
  ASSERT_TRUE(adi.RebuildIndex(db).ok());
  const PatternSet after = adi.Mine(options);

  GSpanMiner gspan;
  ExpectSamePatterns(gspan.Mine(db, options), after, "post-rebuild");
  // A rebuild really rewrote the file.
  EXPECT_GT(adi.io_stats().page_writes, 0);
  (void)before;
}

// On a database whose page file is far larger than the pool (constant
// eviction), mining output must still match gSpan bit for bit: codes,
// supports, and TID sets.
TEST(AdiMineTest, MatchesGSpanOnDatabaseLargerThanPool) {
  Rng rng(47);
  const GraphDatabase db = testutil::RandomDatabase(&rng, 400, 14, 6, 4, 3);
  MinerOptions options;
  options.min_support = 25;
  options.max_edges = 3;

  AdiMineOptions adi_options;
  adi_options.pool.frames = 8;
  AdiMine adi(adi_options);
  ASSERT_TRUE(adi.BuildIndex(db).ok());
  // The index must not fit: every scan pays evictions.
  EXPECT_GT(adi.index().pages_used(), adi_options.pool.frames);
  PatternSet patterns;
  ASSERT_TRUE(adi.Mine(options, &patterns).ok());
  EXPECT_GT(adi.io_stats().evictions, 0);

  GSpanMiner gspan;
  ExpectSamePatterns(gspan.Mine(db, options), patterns, "8 frames");
}

// When the database fits, the scan reads only pool-resident pages after the
// build; output must match gSpan there too.
TEST(AdiMineTest, MatchesGSpanOnResidentDatabase) {
  Rng rng(53);
  const GraphDatabase db = testutil::RandomDatabase(&rng, 40, 10, 4, 3, 2);
  MinerOptions options;
  options.min_support = 4;

  AdiMineOptions adi_options;
  adi_options.pool.frames = 512;
  AdiMine adi(adi_options);
  ASSERT_TRUE(adi.BuildIndex(db).ok());
  EXPECT_LE(adi.index().pages_used(), adi_options.pool.frames);
  GSpanMiner gspan;
  ExpectSamePatterns(gspan.Mine(db, options), adi.Mine(options), "resident");
  EXPECT_EQ(adi.io_stats().evictions, 0);
  EXPECT_EQ(adi.io_stats().page_reads, 0);
}

TEST(AdiMineTest, ScanSkipsGraphsWithoutFrequentEdges) {
  // One graph with unique labels shares no frequent edge; the scan must
  // leave it undecoded (it appears as an empty placeholder).
  GraphDatabase db;
  for (int i = 0; i < 3; ++i) {
    Graph g;
    g.AddVertex(0);
    g.AddVertex(1);
    g.AddEdge(0, 1, 0);
    db.Add(g);
  }
  Graph odd;
  odd.AddVertex(7);
  odd.AddVertex(8);
  odd.AddEdge(0, 1, 9);
  db.Add(odd);

  AdiMine adi;
  ASSERT_TRUE(adi.BuildIndex(db).ok());
  MinerOptions options;
  options.min_support = 2;
  const PatternSet result = adi.Mine(options);
  ASSERT_EQ(result.size(), 1);
  EXPECT_EQ(result.patterns()[0].support, 3);
}

}  // namespace
}  // namespace partminer
