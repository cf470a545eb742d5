// Long-running stress cases split out of stress_test.cc: many-round
// incremental sequences with full re-mining after every round. Runs under
// the `slow` ctest label (ctest -L slow); the fast tier keeps the boundary
// cases.

#include <gtest/gtest.h>

#include "core/inc_part_miner.h"
#include "core/part_miner.h"
#include "datagen/generator.h"
#include "datagen/update_generator.h"
#include "miner/gspan.h"
#include "partition/db_partition.h"
#include "tests/test_util.h"

namespace partminer {
namespace {

using testutil::ExpectSamePatterns;

TEST(StressSlowTest, ManyIncrementalRoundsMixedKinds) {
  // Ten rounds alternating update kinds and fractions, including new labels;
  // exactness must hold after every round.
  GeneratorParams params;
  params.num_graphs = 20;
  params.avg_edges = 10;
  params.num_labels = 4;
  params.num_kernels = 6;
  params.seed = 31;
  GraphDatabase db = GenerateDatabase(params);
  AssignUpdateHotspots(&db, 0.2, 32);

  PartMinerOptions options;
  options.min_support_count = 4;
  options.partition.k = 4;
  PartMiner miner(options);
  miner.Mine(db);

  GSpanMiner gspan;
  MinerOptions full;
  full.min_support = 4;

  IncPartMiner inc;
  for (int round = 0; round < 10; ++round) {
    UpdateOptions upd;
    upd.fraction_graphs = (round % 3 == 0) ? 0.05 : 0.5;
    upd.updates_per_graph = 1 + round % 3;
    upd.new_label_probability = 0.4;  // Aggressive new-label injection.
    upd.kinds = {static_cast<UpdateKind>(round % 3)};
    upd.seed = 7000 + round;
    const UpdateLog log = ApplyUpdates(&db, params.num_labels, upd);
    const IncPartMinerResult r = inc.Update(&miner, db, log);
    ExpectSamePatterns(gspan.Mine(db, full), r.patterns,
                       "round " + std::to_string(round));
  }
}

TEST(StressSlowTest, VertexChainsRouteThroughNewVertices) {
  // AddVertex updates can chain (a new vertex attached to a new vertex via
  // repeated rounds); the incremental result must stay exact and the
  // partition's assignment extension must stay total.
  GeneratorParams params;
  params.num_graphs = 10;
  params.avg_edges = 8;
  params.num_labels = 4;
  params.num_kernels = 4;
  params.seed = 77;
  GraphDatabase db = GenerateDatabase(params);

  PartMinerOptions options;
  options.min_support_count = 3;
  options.partition.k = 3;
  PartMiner miner(options);
  miner.Mine(db);
  PartitionedDatabase part = PartitionedDatabase::Create(db, options.partition);

  GSpanMiner gspan;
  MinerOptions full;
  full.min_support = 3;
  IncPartMiner inc;
  for (int round = 0; round < 5; ++round) {
    UpdateOptions upd;
    upd.fraction_graphs = 1.0;
    upd.updates_per_graph = 3;
    upd.kinds = {UpdateKind::kAddVertex};
    upd.seed = 900 + round;
    const UpdateLog log = ApplyUpdates(&db, params.num_labels, upd);
    const IncPartMinerResult r = inc.Update(&miner, db, log);
    ExpectSamePatterns(gspan.Mine(db, full), r.patterns,
                       "chain round " + std::to_string(round));
    // Every vertex of every graph must have a unit assignment.
    part.ExtendAssignments(db);
    for (int i = 0; i < db.size(); ++i) {
      for (VertexId v = 0; v < db.graph(i).VertexCount(); ++v) {
        const int unit = part.unit_of(i, v);
        EXPECT_GE(unit, 0);
        EXPECT_LT(unit, 3);
      }
    }
  }
}

/// Relabel soak: chained relabel rounds from one Mine on D200T20N20L50I5
/// at 4%, each round compared with gSpan — 20 seeds at k=2 (2% of graphs
/// per round, 60 rounds) and at k=4 (10%, 40 rounds). This is the sweep
/// that exposed the relabel drift of the delta sweep (a cached pattern
/// dropped without a frontier entry, then counted from zero rounds later).
TEST(StressSlowTest, ChainedRelabelSoakMatchesGSpan) {
  struct Setup {
    int k;
    double fraction;
    int rounds;
  };
  for (const Setup& setup : {Setup{2, 0.02, 60}, Setup{4, 0.10, 40}}) {
    for (uint64_t seed = 0; seed < 20; ++seed) {
      GeneratorParams params;
      params.num_graphs = 200;
      params.avg_edges = 20;
      params.num_labels = 20;
      params.num_kernels = 50;
      params.avg_kernel_edges = 5;
      params.seed = seed;
      GraphDatabase db = GenerateDatabase(params);
      AssignUpdateHotspots(&db, 0.2, seed + 1);

      PartMinerOptions options;
      options.min_support_fraction = 0.04;
      options.partition.k = setup.k;
      PartMiner miner(options);
      miner.Mine(db);
      GSpanMiner gspan;
      MinerOptions full;
      full.min_support = miner.root_support();

      IncPartMiner inc;
      for (int round = 0; round < setup.rounds; ++round) {
        UpdateOptions upd;
        upd.fraction_graphs = setup.fraction;
        upd.kinds = {UpdateKind::kRelabel};
        upd.seed = seed * 1000 + round;
        const UpdateLog log = ApplyUpdates(&db, params.num_labels, upd);
        const PatternSet got = inc.Update(&miner, db, log).patterns;
        const PatternSet expected = gspan.Mine(db, full);
        const std::string what = "k=" + std::to_string(setup.k) + " seed " +
                                 std::to_string(seed) + " round " +
                                 std::to_string(round);
        ExpectSamePatterns(expected, got, what);
        if (expected.SortedCodeStrings() != got.SortedCodeStrings()) break;
      }
    }
  }
}

}  // namespace
}  // namespace partminer
