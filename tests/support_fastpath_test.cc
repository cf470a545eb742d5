// Support-counting fast path: the label inverted index and the minimality
// memo cache are pure accelerators — this file pins down the two properties
// that make them safe. First, LabelIndex::CandidatesFor is a certified
// superset of the true TID list for every mined pattern (a pruned graph can
// never host an embedding). Second, mining with the fast path on and off
// yields bit-identical pattern sets — codes, supports, and TID lists — for
// every miner in the repo, at several thread counts.

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/inc_part_miner.h"
#include "core/part_miner.h"
#include "datagen/generator.h"
#include "datagen/update_generator.h"
#include "graph/canonical.h"
#include "graph/isomorphism.h"
#include "graph/label_index.h"
#include "miner/gaston.h"
#include "miner/gspan.h"

namespace partminer {
namespace {

/// Restores the process-wide fast-path toggles (and drops any cached
/// verdicts) no matter how a test exits, so tests stay order-independent.
class FastPathGuard {
 public:
  FastPathGuard()
      : index_(LabelIndexEnabled()), cache_(MinimalityCacheEnabled()) {}
  ~FastPathGuard() {
    SetLabelIndexEnabled(index_);
    SetMinimalityCacheEnabled(cache_);
    ClearMinimalityCache();
  }

  static void Set(bool enabled) {
    SetLabelIndexEnabled(enabled);
    SetMinimalityCacheEnabled(enabled);
    ClearMinimalityCache();
  }

 private:
  const bool index_;
  const bool cache_;
};

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

void ExpectIdentical(const PatternSet& on, const PatternSet& off,
                     const std::string& what) {
  EXPECT_EQ(on.SortedCodeStrings(), off.SortedCodeStrings()) << what;
  for (const PatternInfo& p : on.patterns()) {
    const PatternInfo* q = off.Find(p.code);
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

TEST_P(FastPathEquivalence, BatchMiningBitIdentical) {
  const FastPathCase& c = GetParam();
  const GraphDatabase db = MakeDatabase(21);
  FastPathGuard guard;

  FastPathGuard::Set(true);
  const PatternSet with_fast_path = MineOnce(c, db, 4);
  FastPathGuard::Set(false);
  const PatternSet without = MineOnce(c, db, 4);

  ASSERT_GT(with_fast_path.size(), 0);
  ExpectIdentical(with_fast_path, without,
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

/// The incremental path exercises the delta arithmetic of IncMergeJoin
/// under the minimality memo; both configurations must produce the same
/// classification and TID lists.
TEST_P(FastPathIncremental, UpdateBitIdentical) {
  const int threads = GetParam();
  FastPathGuard guard;

  PatternSet results[2];
  for (const bool enabled : {true, false}) {
    FastPathGuard::Set(enabled);
    GraphDatabase db = MakeDatabase(33);
    PartMinerOptions options;
    options.min_support_count = 4;
    options.partition.k = 3;
    options.unit_mining_threads = threads;
    PartMiner miner(options);
    miner.Mine(db);

    UpdateOptions upd;
    upd.fraction_graphs = 0.4;
    upd.updates_per_graph = 2;
    upd.seed = 17;
    const UpdateLog log = ApplyUpdates(&db, 5, upd);
    ASSERT_FALSE(log.updated_graphs.empty());

    IncPartMiner inc;
    results[enabled ? 0 : 1] = inc.Update(&miner, db, log).patterns;
  }

  ASSERT_GT(results[0].size(), 0);
  ExpectIdentical(results[0], results[1],
                  "incremental threads=" + std::to_string(threads));
}

INSTANTIATE_TEST_SUITE_P(Threads, FastPathIncremental,
                         ::testing::Values(1, 2, 8));

}  // namespace
}  // namespace partminer
