#include <gtest/gtest.h>

#include <sstream>

#include "common/fnv.h"
#include "datagen/generator.h"
#include "datagen/update_generator.h"
#include "graph/canonical.h"
#include "graph/graph_io.h"
#include "miner/gspan.h"

namespace partminer {
namespace {

GeneratorParams SmallParams(uint64_t seed = 1) {
  GeneratorParams p;
  p.num_graphs = 30;
  p.avg_edges = 12;
  p.num_labels = 6;
  p.avg_kernel_edges = 3;
  p.num_kernels = 10;
  p.seed = seed;
  return p;
}

TEST(GeneratorTest, ProducesRequestedCount) {
  const GraphDatabase db = GenerateDatabase(SmallParams());
  EXPECT_EQ(db.size(), 30);
}

TEST(GeneratorTest, GraphsAreConnectedAndNonEmpty) {
  const GraphDatabase db = GenerateDatabase(SmallParams(3));
  for (int i = 0; i < db.size(); ++i) {
    EXPECT_TRUE(db.graph(i).IsConnected()) << i;
    EXPECT_GT(db.graph(i).EdgeCount(), 0) << i;
  }
}

TEST(GeneratorTest, AverageSizeTracksT) {
  GeneratorParams p = SmallParams(5);
  p.num_graphs = 100;
  p.avg_edges = 20;
  const GraphDatabase db = GenerateDatabase(p);
  const double avg = static_cast<double>(db.TotalEdges()) / db.size();
  EXPECT_GT(avg, 12.0);
  EXPECT_LT(avg, 30.0);
}

TEST(GeneratorTest, DeterministicBySeed) {
  const GraphDatabase a = GenerateDatabase(SmallParams(9));
  const GraphDatabase b = GenerateDatabase(SmallParams(9));
  ASSERT_EQ(a.size(), b.size());
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.graph(i).EdgeCount(), b.graph(i).EdgeCount());
    EXPECT_EQ(MinimumDfsCode(a.graph(i)), MinimumDfsCode(b.graph(i)));
  }
  const GraphDatabase c = GenerateDatabase(SmallParams(10));
  bool any_different = false;
  for (int i = 0; i < std::min(a.size(), c.size()); ++i) {
    if (a.graph(i).EdgeCount() != c.graph(i).EdgeCount() ||
        MinimumDfsCode(a.graph(i)) != MinimumDfsCode(c.graph(i))) {
      any_different = true;
      break;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(GeneratorTest, PlantedKernelsMakePatternsFrequent) {
  // With L kernels of popularity-skewed sampling, mining at a moderate
  // support must find patterns beyond single edges.
  GeneratorParams p = SmallParams(11);
  p.num_graphs = 60;
  const GraphDatabase db = GenerateDatabase(p);
  GSpanMiner miner;
  MinerOptions options;
  options.min_support = static_cast<int>(0.1 * db.size());
  options.max_edges = 4;
  const PatternSet patterns = miner.Mine(db, options);
  EXPECT_GT(patterns.MaxEdgeCount(), 1);
}

TEST(GeneratorTest, TagMatchesPaperNaming) {
  GeneratorParams p;
  p.num_graphs = 50000;
  p.avg_edges = 20;
  p.num_labels = 20;
  p.num_kernels = 200;
  p.avg_kernel_edges = 5;
  EXPECT_EQ(p.Tag(), "D50000T20N20L200I5");
}

TEST(HotspotTest, AssignsRequestedFraction) {
  GraphDatabase db = GenerateDatabase(SmallParams(2));
  AssignUpdateHotspots(&db, 0.3, 5);
  int hot = 0, total = 0;
  for (int i = 0; i < db.size(); ++i) {
    const Graph& g = db.graph(i);
    for (VertexId v = 0; v < g.VertexCount(); ++v) {
      ++total;
      if (g.update_freq(v) > 0) ++hot;
    }
  }
  const double fraction = static_cast<double>(hot) / total;
  EXPECT_GT(fraction, 0.15);
  EXPECT_LT(fraction, 0.45);
}

TEST(UpdateGeneratorTest, FractionControlsUpdatedGraphs) {
  GraphDatabase db = GenerateDatabase(SmallParams(4));
  UpdateOptions upd;
  upd.fraction_graphs = 0.5;
  upd.seed = 8;
  const UpdateLog log = ApplyUpdates(&db, 6, upd);
  EXPECT_GT(log.updated_graphs.size(), 5u);
  EXPECT_LT(log.updated_graphs.size(), 25u);
  EXPECT_FALSE(log.touched_vertices.empty());
}

TEST(UpdateGeneratorTest, RelabelPreservesTopology) {
  GraphDatabase db = GenerateDatabase(SmallParams(6));
  std::vector<int> edges_before, vertices_before;
  for (int i = 0; i < db.size(); ++i) {
    edges_before.push_back(db.graph(i).EdgeCount());
    vertices_before.push_back(db.graph(i).VertexCount());
  }
  UpdateOptions upd;
  upd.fraction_graphs = 1.0;
  upd.kinds = {UpdateKind::kRelabel};
  upd.seed = 9;
  ApplyUpdates(&db, 6, upd);
  for (int i = 0; i < db.size(); ++i) {
    EXPECT_EQ(db.graph(i).EdgeCount(), edges_before[i]);
    EXPECT_EQ(db.graph(i).VertexCount(), vertices_before[i]);
  }
}

TEST(UpdateGeneratorTest, AddVertexGrowsGraphsAndStaysConnected) {
  GraphDatabase db = GenerateDatabase(SmallParams(7));
  UpdateOptions upd;
  upd.fraction_graphs = 1.0;
  upd.updates_per_graph = 3;
  upd.kinds = {UpdateKind::kAddVertex};
  upd.seed = 10;
  const UpdateLog log = ApplyUpdates(&db, 6, upd);
  for (const int gi : log.updated_graphs) {
    EXPECT_TRUE(db.graph(gi).IsConnected()) << gi;
  }
}

TEST(UpdateGeneratorTest, TouchedVerticesGetFrequencyBumps) {
  GraphDatabase db = GenerateDatabase(SmallParams(8));
  UpdateOptions upd;
  upd.fraction_graphs = 0.5;
  upd.seed = 11;
  const UpdateLog log = ApplyUpdates(&db, 6, upd);
  for (const auto& [gi, v] : log.touched_vertices) {
    EXPECT_GT(db.graph(gi).update_freq(v), 0u);
  }
}

/// Two chained ApplyUpdates rounds (the second sees the first's hotspots)
/// over a generated database, digested: the written database text, every
/// vertex's update frequency and both UpdateLogs.
uint64_t UpdateRoundsDigest(UpdateOptions options) {
  GeneratorParams params = SmallParams(12);
  params.num_graphs = 120;
  GraphDatabase db = GenerateDatabase(params);
  uint64_t hash = kFnvOffsetBasis;
  for (int round = 0; round < 2; ++round, ++options.seed) {
    const UpdateLog log = ApplyUpdates(&db, params.num_labels, options);
    EXPECT_FALSE(log.updated_graphs.empty());
    for (const int gi : log.updated_graphs) hash = FnvStep(hash, gi);
    for (const auto& [gi, v] : log.touched_vertices) {
      hash = FnvStep(FnvStep(hash, gi), v);
    }
  }
  std::ostringstream text;
  EXPECT_TRUE(WriteGraphDatabase(db, text).ok());
  const std::string written = text.str();
  hash = Fnv1a(written.data(), written.size(), hash);
  for (int gi = 0; gi < db.size(); ++gi) {
    for (VertexId v = 0; v < db.graph(gi).VertexCount(); ++v) {
      hash = FnvStep(hash, db.graph(gi).update_freq(v));
    }
  }
  return hash;
}

// Pins the exact databases and logs ApplyUpdates writes: the fuzzer,
// update_rounds and fig. 17 replay them, so any change to the order of the
// random draws or to how an edit applies shows up here.
TEST(UpdateGeneratorTest, GoldenDigestsOfChainedRounds) {
  UpdateOptions all_kinds;
  all_kinds.fraction_graphs = 0.02;
  all_kinds.seed = 31;
  EXPECT_EQ(UpdateRoundsDigest(all_kinds), 236641059310098361ull);

  UpdateOptions relabel_only;
  relabel_only.fraction_graphs = 0.2;
  relabel_only.kinds = {UpdateKind::kRelabel};
  relabel_only.seed = 32;
  EXPECT_EQ(UpdateRoundsDigest(relabel_only), 11568643906582611200ull);

  UpdateOptions local;
  local.fraction_graphs = 0.4;
  local.hotspot_locality = 1.0;
  local.seed = 33;
  EXPECT_EQ(UpdateRoundsDigest(local), 14275750149181616569ull);
}

}  // namespace
}  // namespace partminer
