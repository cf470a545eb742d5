#include <gtest/gtest.h>

#include "common/random.h"
#include "core/inc_part_miner.h"
#include "core/part_miner.h"
#include "datagen/generator.h"
#include "datagen/update_generator.h"
#include "graph/canonical.h"
#include "miner/gspan.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace partminer {
namespace {

/// Property behind Theorem 1/3: the merge at the root recovers exactly the
/// gSpan result on the recombined database — same patterns, same supports,
/// same TIDs.
TEST(MergeJoinTest, LosslessRecoveryAgainstGSpan) {
  Rng rng(606);
  for (int trial = 0; trial < 6; ++trial) {
    const GraphDatabase db = testutil::RandomDatabase(&rng, 10, 8, 3, 3, 2);
    const int sup = 3;

    PartMinerOptions part_options;
    part_options.min_support_count = sup;
    PartMiner part_miner(part_options);
    const PatternSet merged = part_miner.Mine(db).patterns;

    GSpanMiner miner;
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
/// pre-update set, delta-recounting every cached pattern.
TEST(IncMergeJoinTest, DeltaRecoveryAgainstGSpan) {
  Rng rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    const GraphDatabase db = testutil::RandomDatabase(&rng, 12, 8, 3, 3, 2);
    const int sup = 3;

    // Mutate a few graphs: relabel one vertex each.
    GraphDatabase updated_db = db;
    UpdateLog log;
    for (int gi = 0; gi < updated_db.size(); gi += 4) {
      Graph& g = updated_db.mutable_graph(gi);
      const VertexId v = static_cast<VertexId>(rng.Uniform(g.VertexCount()));
      g.set_vertex_label(v, static_cast<Label>(rng.Uniform(3)));
      log.updated_graphs.push_back(gi);
    }

    GSpanMiner miner;
    MinerOptions options;
    options.min_support = sup;
    const PatternSet expected = miner.Mine(updated_db, options);
    PartMinerOptions part_options;
    part_options.min_support_count = sup;
    PartMiner state(part_options);
    const int cached = state.Mine(db).patterns.size();
    const IncPartMinerResult result =
        IncPartMiner().Update(&state, updated_db, log);
    const PatternSet& incremental = result.patterns;

    EXPECT_EQ(expected.SortedCodeStrings(), incremental.SortedCodeStrings())
        << "trial " << trial;
    for (const PatternInfo& p : expected.patterns()) {
      const PatternInfo* q = incremental.Find(p.code);
      ASSERT_NE(q, nullptr);
      EXPECT_EQ(p.support, q->support) << p.code.ToString();
      EXPECT_EQ(p.tids, q->tids) << p.code.ToString();
    }
    EXPECT_GT(result.merge_stats.delta_recounts, 0);
    EXPECT_EQ(result.merge_stats.delta_recounts, cached);
  }
}

TEST(IncMergeJoinTest, NoUpdatesIsCheapIdentity) {
  Rng rng(123);
  const GraphDatabase db = testutil::RandomDatabase(&rng, 10, 8, 3, 3, 2);
  PartMinerOptions options;
  options.min_support_count = 3;
  PartMiner state(options);
  const PatternSet cached = state.Mine(db).patterns;

  const IncPartMinerResult result =
      IncPartMiner().Update(&state, db, UpdateLog());
  EXPECT_EQ(cached.SortedCodeStrings(), result.patterns.SortedCodeStrings());
  // Nothing was updated: the discovery sweep generates no candidates.
  EXPECT_EQ(result.merge_stats.candidates_generated, 0);
  EXPECT_EQ(result.merge_stats.candidates_counted, 0);
}

/// One mined state plus a round of add-only edits (adding edges never
/// removes an occurrence, so every cached pattern stays frequent).
struct KnownVerdictCase {
  GraphDatabase db;
  PartMiner state{Options()};
  UpdateLog log;

  static PartMinerOptions Options() {
    PartMinerOptions options;
    options.min_support_count = 6;
    return options;
  }

  explicit KnownVerdictCase(double fraction_graphs) {
    GeneratorParams params;
    params.num_graphs = 60;
    params.avg_edges = 12;
    params.num_labels = 5;
    params.num_kernels = 10;
    params.avg_kernel_edges = 4;
    params.seed = 41;
    db = GenerateDatabase(params);
    state.Mine(db);

    UpdateOptions upd;
    upd.fraction_graphs = fraction_graphs;
    upd.kinds = {UpdateKind::kAddEdge, UpdateKind::kAddVertex};
    upd.seed = 5;
    log = ApplyUpdates(&db, params.num_labels, upd);
  }

  /// Runs one Update round, checks it against gSpan, and returns how many
  /// IsMinimalDfsCode calls it made.
  int64_t RunCountingChecks(MergeJoinStats* stats) {
    obs::Counter* checks = obs::MetricRegistry::Global().GetCounter(
        "miner.minimality_checks");
    const int64_t before = checks->value();
    const IncPartMinerResult result = IncPartMiner().Update(&state, db, log);
    const int64_t calls = checks->value() - before;
    *stats = result.merge_stats;

    GSpanMiner gspan;
    MinerOptions options;
    options.min_support = Options().min_support_count;
    EXPECT_EQ(gspan.Mine(db, options).SortedCodeStrings(),
              result.patterns.SortedCodeStrings());
    return calls;
  }
};

/// A delta round knows every cached code is minimal, and that a frontier
/// code already frequent outside the updated graphs is not: it tests far
/// fewer codes than the still-frequent cached patterns it re-reaches, at a
/// small share of updated graphs and at a large one.
TEST(IncMergeJoinTest, DeltaRoundTestsOnlyUnknownVerdicts) {
  for (const double fraction : {0.05, 0.4}) {
    KnownVerdictCase c(fraction);
    ASSERT_GT(c.log.updated_graphs.size(), fraction / 2 * c.db.size());
    MergeJoinStats stats;
    const int64_t calls = c.RunCountingChecks(&stats);
    EXPECT_GT(stats.delta_recounts, 0) << fraction;
    ASSERT_GT(stats.candidates_skipped_known, 0) << fraction;
    EXPECT_LT(calls, stats.candidates_skipped_known) << fraction;
  }
}

}  // namespace
}  // namespace partminer
