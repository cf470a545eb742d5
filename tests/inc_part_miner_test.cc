#include "core/inc_part_miner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "datagen/generator.h"
#include "datagen/update_generator.h"
#include "miner/gspan.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace partminer {
namespace {

using testutil::ExpectSamePatterns;

GraphDatabase MakeDatabase(uint64_t seed, int graphs = 16) {
  GeneratorParams params;
  params.num_graphs = graphs;
  params.avg_edges = 10;
  params.num_labels = 5;
  params.num_kernels = 8;
  params.avg_kernel_edges = 3;
  params.seed = seed;
  GraphDatabase db = GenerateDatabase(params);
  AssignUpdateHotspots(&db, 0.2, seed + 1);
  return db;
}

/// Classification exactness: IF carries the new info, FI the old, UF
/// counts the rest of the new set, all of it frequent before, and
/// `changed` lists exactly the UF codes whose support moved.
void ExpectExactClassification(const PatternSet& before,
                               const PatternSet& expected,
                               const IncPartMinerResult& result) {
  std::vector<std::string> changed;
  for (const PatternInfo& p : expected.patterns()) {
    const PatternInfo* old = before.Find(p.code);
    if (old != nullptr && old->support != p.support) {
      changed.push_back(p.code.ToString());
    }
  }
  std::vector<std::string> reported;
  for (const DfsCode& code : result.changed) {
    reported.push_back(code.ToString());
  }
  std::sort(changed.begin(), changed.end());
  std::sort(reported.begin(), reported.end());
  EXPECT_EQ(reported, changed) << "changed supports";

  int uf = 0;
  for (const PatternInfo& p : result.patterns.patterns()) {
    if (result.if_.Contains(p.code)) continue;
    EXPECT_TRUE(before.Contains(p.code)) << p.code.ToString();
    ++uf;
  }
  EXPECT_EQ(result.uf, uf);
  for (const PatternInfo& p : result.if_.patterns()) {
    EXPECT_FALSE(before.Contains(p.code)) << p.code.ToString();
    ASSERT_TRUE(expected.Contains(p.code)) << p.code.ToString();
    EXPECT_EQ(p.tids, expected.Find(p.code)->tids) << p.code.ToString();
  }
  for (const PatternInfo& p : result.fi.patterns()) {
    ASSERT_TRUE(before.Contains(p.code)) << p.code.ToString();
    EXPECT_FALSE(expected.Contains(p.code)) << p.code.ToString();
    EXPECT_EQ(p.tids, before.Find(p.code)->tids) << p.code.ToString();
  }
  EXPECT_EQ(result.uf + result.if_.size(), expected.size());
  EXPECT_EQ(result.uf + result.fi.size(), before.size());
}

struct IncCase {
  int k;
  UpdateKind kind;
  double fraction;
};

class IncPartMinerEquivalence : public ::testing::TestWithParam<IncCase> {};

/// The incremental headline property: after updates, IncPartMiner's result
/// equals a from-scratch gSpan mining of the updated database, and the
/// UF/FI/IF sets partition old/new results exactly.
TEST_P(IncPartMinerEquivalence, MatchesFromScratch) {
  const IncCase& c = GetParam();
  GraphDatabase db = MakeDatabase(42 + c.k);

  PartMinerOptions options;
  options.min_support_count = 4;
  options.partition.k = c.k;
  PartMiner miner(options);
  const PartMinerResult before = miner.Mine(db);

  UpdateOptions upd;
  upd.fraction_graphs = c.fraction;
  upd.kinds = {c.kind};
  upd.seed = 99 + c.k;
  const UpdateLog log = ApplyUpdates(&db, 5, upd);
  ASSERT_FALSE(log.updated_graphs.empty());

  IncPartMiner inc;
  const IncPartMinerResult result = inc.Update(&miner, db, log);

  GSpanMiner gspan;
  MinerOptions full;
  full.min_support = 4;
  const PatternSet expected = gspan.Mine(db, full);
  ExpectSamePatterns(expected, result.patterns, "incremental vs scratch");

  ExpectExactClassification(before.patterns, expected, result);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IncPartMinerEquivalence,
    ::testing::Values(IncCase{2, UpdateKind::kRelabel, 0.3},
                      IncCase{2, UpdateKind::kAddEdge, 0.3},
                      IncCase{2, UpdateKind::kAddVertex, 0.3},
                      IncCase{3, UpdateKind::kRelabel, 0.5},
                      IncCase{4, UpdateKind::kAddEdge, 0.5},
                      IncCase{4, UpdateKind::kAddVertex, 0.8},
                      IncCase{6, UpdateKind::kRelabel, 0.8}),
    [](const ::testing::TestParamInfo<IncCase>& info) {
      const char* kind =
          info.param.kind == UpdateKind::kRelabel     ? "relabel"
          : info.param.kind == UpdateKind::kAddEdge   ? "addedge"
                                                      : "addvertex";
      return "k" + std::to_string(info.param.k) + "_" + kind + "_f" +
             std::to_string(static_cast<int>(info.param.fraction * 100));
    });

TEST(IncPartMinerTest, ForcedDeltaPathStaysExactAcrossRounds) {
  // Six chained rounds of the frontier-backed delta sweep, whose
  // correctness depends on multi-round frontier maintenance (stripping,
  // refresh, promotion, subtree cuts, compaction).
  GraphDatabase db = MakeDatabase(99);
  PartMinerOptions options;
  options.min_support_count = 4;
  options.partition.k = 3;
  PartMiner miner(options);
  miner.Mine(db);

  GSpanMiner gspan;
  MinerOptions full;
  full.min_support = 4;

  IncPartMiner inc;
  for (int round = 0; round < 6; ++round) {
    UpdateOptions upd;
    upd.fraction_graphs = 0.3;
    upd.updates_per_graph = 2;
    upd.kinds = {static_cast<UpdateKind>(round % 3)};
    upd.seed = 4000 + round;
    const UpdateLog log = ApplyUpdates(&db, 5, upd);
    const PatternSet before = miner.patterns();
    const IncPartMinerResult result = inc.Update(&miner, db, log);
    const PatternSet expected = gspan.Mine(db, full);
    ExpectSamePatterns(expected, result.patterns,
                       "forced-delta round " + std::to_string(round));
    ExpectExactClassification(before, expected, result);
  }
}

TEST(IncPartMinerTest, MultipleRoundsStayExact) {
  GraphDatabase db = MakeDatabase(7);
  PartMinerOptions options;
  options.min_support_count = 4;
  options.partition.k = 4;
  PartMiner miner(options);
  miner.Mine(db);

  GSpanMiner gspan;
  MinerOptions full;
  full.min_support = 4;

  IncPartMiner inc;
  for (int round = 0; round < 4; ++round) {
    UpdateOptions upd;
    upd.fraction_graphs = 0.4;
    upd.seed = 1000 + round;
    const UpdateLog log = ApplyUpdates(&db, 5, upd);
    const IncPartMinerResult result = inc.Update(&miner, db, log);
    ExpectSamePatterns(gspan.Mine(db, full), result.patterns,
                       "round " + std::to_string(round));
  }
}

/// A round that updates every graph takes the delta path like any other:
/// it compacts the frontier first (every graph is pending), and its result
/// equals a from-scratch gSpan mine in codes, supports and TIDs.
TEST(IncPartMinerTest, EveryGraphUpdatedRoundMatchesGSpanAndCompacts) {
  obs::Counter* compactions = obs::MetricRegistry::Global().GetCounter(
      "partminer.update.frontier_compactions");
  Rng rng(4242);
  for (int trial = 0; trial < 6; ++trial) {
    GraphDatabase db = testutil::RandomDatabase(&rng, 14, 7, 3, 3, 2);
    PartMinerOptions options;
    options.min_support_count = 3;
    PartMiner miner(options);
    miner.Mine(db);

    UpdateOptions upd;
    upd.fraction_graphs = 1.0;
    upd.updates_per_graph = 2;
    upd.seed = 90 + trial;
    const UpdateLog log = ApplyUpdates(&db, 3, upd);
    const std::string what = "trial " + std::to_string(trial);
    ASSERT_EQ(static_cast<int>(log.updated_graphs.size()), db.size()) << what;

    const PatternSet before = miner.patterns();
    const int64_t compactions_before = compactions->value();
    const IncPartMinerResult result = IncPartMiner().Update(&miner, db, log);
    EXPECT_EQ(compactions->value(), compactions_before + 1) << what;
    EXPECT_EQ(miner.root_frontier().map.PendingGraphs(), 0) << what;
    EXPECT_EQ(result.merge_stats.delta_recounts, before.size()) << what;

    GSpanMiner gspan;
    MinerOptions full;
    full.min_support = 3;
    const PatternSet expected = gspan.Mine(db, full);
    ExpectSamePatterns(expected, result.patterns, what);
    ExpectExactClassification(before, expected, result);
  }
}

TEST(IncPartMinerTest, IncrementalWorkIsBoundedByUpdates) {
  GraphDatabase db = MakeDatabase(21, /*graphs=*/24);
  PartMinerOptions options;
  options.min_support_count = 5;
  options.partition.k = 2;
  PartMiner miner(options);
  const PartMinerResult before = miner.Mine(db);

  UpdateOptions upd;
  upd.fraction_graphs = 0.1;
  upd.seed = 3;
  const UpdateLog log = ApplyUpdates(&db, 5, upd);

  IncPartMiner inc;
  obs::Counter* iso_tests =
      obs::MetricRegistry::Global().GetCounter("iso.subgraph_tests");
  const int64_t iso_before = iso_tests->value();
  const IncPartMinerResult result = inc.Update(&miner, db, log);
  // The incremental merge delta-recounts the cached patterns (touching only
  // updated graphs) and counts far fewer fresh candidates than the initial
  // mine verified patterns.
  EXPECT_GT(result.merge_stats.delta_recounts, 0);
  EXPECT_LT(result.merge_stats.candidates_counted,
            before.merge_stats.candidates_counted);
  // Supports come from set arithmetic and embedding projection alone: the
  // round runs no subgraph-isomorphism test.
  EXPECT_EQ(iso_tests->value(), iso_before);
}

/// Chained relabel rounds carried from one Mine, each compared with gSpan.
/// A relabel can strip every occurrence of a cached pattern from the
/// updated graphs, so the delta sweep never reaches it; dropped without a
/// frontier entry, a later round that reaches it again would count it from
/// zero and miss it.
TEST(IncPartMinerTest, ChainedRelabelRoundsStayExact) {
  for (const int k : {1, 2, 4}) {
    for (const uint64_t seed : {0, 1, 5}) {
      GeneratorParams params;
      params.num_graphs = 40;
      params.avg_edges = 10;
      params.num_labels = 5;
      params.num_kernels = 20;
      params.avg_kernel_edges = 3;
      params.seed = seed;
      GraphDatabase db = GenerateDatabase(params);
      AssignUpdateHotspots(&db, 0.2, seed + 1);

      PartMinerOptions options;
      options.min_support_count = 4;
      options.partition.k = k;
      PartMiner miner(options);
      miner.Mine(db);

      GSpanMiner gspan;
      MinerOptions full;
      full.min_support = 4;
      IncPartMiner inc;
      for (int round = 0; round < 12; ++round) {
        UpdateOptions upd;
        upd.fraction_graphs = 0.1;
        upd.kinds = {UpdateKind::kRelabel};
        upd.seed = seed * 1000 + round;
        const UpdateLog log = ApplyUpdates(&db, params.num_labels, upd);
        const PatternSet before = miner.patterns();
        const IncPartMinerResult result = inc.Update(&miner, db, log);
        const PatternSet expected = gspan.Mine(db, full);
        ExpectSamePatterns(expected, result.patterns,
                           "k=" + std::to_string(k) + " seed " +
                               std::to_string(seed) + " round " +
                               std::to_string(round));
        ExpectExactClassification(before, expected, result);
      }
    }
  }
}

/// A round that updates no graph leaves the state as it was, down to the
/// order of the set and every frontier entry, and reports no change.
TEST(IncPartMinerTest, NoOpRoundChangesNothing) {
  GraphDatabase db = MakeDatabase(11);
  PartMinerOptions options;
  options.min_support_count = 4;
  PartMiner miner(options);
  miner.Mine(db);
  // One real round first, so the frontier holds epochs and cuts.
  UpdateOptions upd;
  upd.fraction_graphs = 0.1;
  upd.kinds = {UpdateKind::kRelabel};
  upd.seed = 17;
  IncPartMiner inc;
  inc.Update(&miner, db, ApplyUpdates(&db, 5, upd));

  const std::vector<PatternInfo> before = miner.patterns().patterns();
  const FrontierMap frontier = miner.root_frontier().map.ToMap();
  const size_t stored = miner.root_frontier().map.size();
  const IncPartMinerResult result = inc.Update(&miner, db, UpdateLog());

  const std::vector<PatternInfo>& after = miner.patterns().patterns();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].code, before[i].code) << i;
    EXPECT_EQ(after[i].support, before[i].support) << i;
    EXPECT_EQ(after[i].tids, before[i].tids) << i;
  }
  EXPECT_EQ(miner.root_frontier().map.ToMap(), frontier);
  EXPECT_EQ(miner.root_frontier().map.size(), stored);
  EXPECT_TRUE(result.if_.empty());
  EXPECT_TRUE(result.fi.empty());
  EXPECT_TRUE(result.changed.empty());
  EXPECT_EQ(result.uf, static_cast<int>(before.size()));
  ExpectSamePatterns(miner.patterns(), result.patterns, "no-op round");
}

/// ApplyRound is Update without the copy: the same state and the same
/// change, with `patterns` left empty.
TEST(IncPartMinerTest, ApplyRoundReturnsTheChangeOnly) {
  GraphDatabase db = MakeDatabase(13);
  PartMinerOptions options;
  options.min_support_count = 4;
  PartMiner copied(options);
  copied.Mine(db);
  PartMiner in_place(options);
  in_place.Mine(db);
  IncPartMiner inc;
  for (int round = 0; round < 4; ++round) {
    UpdateOptions upd;
    upd.fraction_graphs = 0.1;
    upd.seed = 300 + round;
    const UpdateLog log = ApplyUpdates(&db, 5, upd);
    const IncPartMinerResult full = inc.Update(&copied, db, log);
    const IncPartMinerResult change = inc.ApplyRound(&in_place, db, log);
    const std::string what = "round " + std::to_string(round);
    EXPECT_TRUE(change.patterns.empty()) << what;
    ExpectSamePatterns(full.patterns, in_place.patterns(), what);
    EXPECT_EQ(change.if_.SortedCodeStrings(), full.if_.SortedCodeStrings());
    EXPECT_EQ(change.fi.SortedCodeStrings(), full.fi.SortedCodeStrings());
    EXPECT_EQ(change.changed, full.changed) << what;
    EXPECT_EQ(change.uf, full.uf) << what;
  }
}

TEST(IncPartMinerTest, RequiresMinedState) {
  PartMinerOptions options;
  PartMiner miner(options);
  IncPartMiner inc;
  GraphDatabase db;
  UpdateLog log;
  EXPECT_DEATH(inc.Update(&miner, db, log), "requires a completed Mine");
}

}  // namespace
}  // namespace partminer
