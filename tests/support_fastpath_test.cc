// Support-counting fast paths: the label inverted index that Apriori builds
// per Mine, and the minimality verdicts IncMergeJoin already knows and so
// does not test, are pure accelerators. This file pins down the properties
// that make them safe. First, LabelIndex::CandidatesFor is a certified
// superset of the true TID list for every mined pattern (a pruned graph can
// never host an embedding). Second, Apriori's index-pruned counting yields
// bit-identical pattern sets (codes, supports and TID lists) to every other
// miner, at several thread counts. Third, incremental rounds that skip the
// known verdicts, on the delta path and on the re-sweep path, match a
// from-scratch mine bit for bit.

#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/inc_part_miner.h"
#include "core/part_miner.h"
#include "datagen/generator.h"
#include "datagen/update_generator.h"
#include "graph/isomorphism.h"
#include "graph/label_index.h"
#include "miner/apriori.h"
#include "miner/gaston.h"
#include "miner/gspan.h"

namespace partminer {
namespace {

GraphDatabase MakeDatabase(uint64_t seed, int graphs = 18) {
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

void ExpectIdentical(const PatternSet& expected, const PatternSet& actual,
                     const std::string& what) {
  EXPECT_EQ(expected.SortedCodeStrings(), actual.SortedCodeStrings()) << what;
  for (const PatternInfo& p : expected.patterns()) {
    const PatternInfo* q = actual.Find(p.code);
    ASSERT_NE(q, nullptr) << what << ": missing " << p.code.ToString();
    EXPECT_EQ(p.support, q->support) << what << ": " << p.code.ToString();
    EXPECT_EQ(p.tids, q->tids) << what << ": " << p.code.ToString();
  }
}

/// Exhaustive superset check: for every frequent pattern AND every single
/// distinct edge of the database, the index candidates contain every graph
/// the exact matcher accepts, and the exact count is reproduced when the
/// scan is restricted to the candidates.
TEST(SupportFastPathTest, CandidatesAreSupersetOfTrueTids) {
  const GraphDatabase db = MakeDatabase(7);
  const LabelIndex index(db);
  EXPECT_EQ(index.graph_count(), db.size());

  GSpanMiner gspan;
  MinerOptions options;
  options.min_support = 2;
  const PatternSet mined = gspan.Mine(db, options);
  ASSERT_GT(mined.size(), 0);

  for (const PatternInfo& p : mined.patterns()) {
    const Graph pattern = p.code.ToGraph();
    const TidSet candidates = index.CandidatesFor(pattern);
    const SubgraphMatcher matcher(pattern);
    TidSet exact;
    const int support = matcher.CountSupport(db, &exact);
    EXPECT_TRUE(candidates.Includes(exact))
        << p.code.ToString() << ": candidates " << candidates
        << " miss true tids " << exact;
    // Counting only within the candidates loses nothing.
    TidSet pruned;
    EXPECT_EQ(matcher.CountSupportAmong(db, candidates, &pruned), support);
    EXPECT_EQ(pruned, exact) << p.code.ToString();
    EXPECT_EQ(p.tids, exact) << p.code.ToString();
  }
}

TEST(SupportFastPathTest, UnknownLabelsPruneEverything) {
  const GraphDatabase db = MakeDatabase(8);
  const LabelIndex index(db);

  // A single-edge pattern whose labels never occur in the database must have
  // an empty candidate set (and, trivially, zero support).
  Graph pattern;
  const VertexId a = pattern.AddVertex(999);
  const VertexId b = pattern.AddVertex(998);
  pattern.AddEdge(a, b, 997);
  const TidSet candidates = index.CandidatesFor(pattern);
  EXPECT_TRUE(candidates.Empty());
  const SubgraphMatcher matcher(pattern);
  EXPECT_EQ(matcher.CountSupport(db, static_cast<TidSet*>(nullptr)), 0);
}

struct FastPathCase {
  std::string miner;
  int threads;  // PartMiner unit-mining threads; batch miners ignore it.
};

// Without this, gtest prints the case as raw object bytes, which include the
// string's heap pointer and so change the listed test name on every run.
void PrintTo(const FastPathCase& c, std::ostream* os) {
  *os << c.miner << " threads=" << c.threads;
}

class FastPathEquivalence : public ::testing::TestWithParam<FastPathCase> {};

PatternSet MineOnce(const FastPathCase& c, const GraphDatabase& db,
                    int min_support) {
  if (c.miner == "gspan") {
    GSpanMiner miner;
    MinerOptions options;
    options.min_support = min_support;
    return miner.Mine(db, options);
  }
  if (c.miner == "gaston") {
    GastonMiner miner;
    MinerOptions options;
    options.min_support = min_support;
    return miner.Mine(db, options);
  }
  PartMinerOptions options;
  options.min_support_count = min_support;
  options.partition.k = 3;
  options.unit_mining_threads = c.threads;
  return MinePaperPipeline(db, options).patterns;
}

/// Apriori counts every candidate only inside the label index's candidate
/// graphs; no other miner reads the index.
TEST_P(FastPathEquivalence, BatchMiningBitIdentical) {
  const FastPathCase& c = GetParam();
  const GraphDatabase db = MakeDatabase(21);

  AprioriMiner apriori;
  MinerOptions options;
  options.min_support = 4;
  const PatternSet indexed = apriori.Mine(db, options);

  ASSERT_GT(indexed.size(), 0);
  ExpectIdentical(indexed, MineOnce(c, db, 4),
                  c.miner + " threads=" + std::to_string(c.threads));
}

INSTANTIATE_TEST_SUITE_P(
    Miners, FastPathEquivalence,
    ::testing::Values(FastPathCase{"gspan", 1}, FastPathCase{"gaston", 1},
                      FastPathCase{"partminer", 1}, FastPathCase{"partminer", 2},
                      FastPathCase{"partminer", 8}),
    [](const ::testing::TestParamInfo<FastPathCase>& info) {
      return info.param.miner + "_t" + std::to_string(info.param.threads);
    });

class FastPathIncremental : public ::testing::TestWithParam<int> {};

/// A small round takes IncMergeJoin's delta path and a 40% round its
/// re-sweep; both skip the minimality test wherever the verdict is known.
/// Each round must match the paper pipeline re-mining the updated database
/// from scratch on `threads` unit-mining threads.
TEST_P(FastPathIncremental, UpdateBitIdentical) {
  const int threads = GetParam();
  GraphDatabase db = MakeDatabase(33);
  PartMinerOptions options;
  options.min_support_count = 4;
  options.partition.k = 3;
  options.unit_mining_threads = threads;
  PartMiner miner(options);
  miner.Mine(db);

  IncPartMiner inc;
  for (const double fraction : {0.1, 0.4}) {
    UpdateOptions upd;
    upd.fraction_graphs = fraction;
    upd.updates_per_graph = 2;
    upd.seed = 17;
    const UpdateLog log = ApplyUpdates(&db, 5, upd);
    ASSERT_FALSE(log.updated_graphs.empty());

    const PatternSet incremental = inc.Update(&miner, db, log).patterns;
    ASSERT_GT(incremental.size(), 0);
    ExpectIdentical(MinePaperPipeline(db, options).patterns, incremental,
                    "fraction " + std::to_string(fraction) + " threads=" +
                        std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, FastPathIncremental,
                         ::testing::Values(1, 2, 8));

}  // namespace
}  // namespace partminer
