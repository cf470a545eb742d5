#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/inc_part_miner.h"
#include "core/part_miner.h"
#include "datagen/generator.h"
#include "datagen/update_generator.h"
#include "miner/gaston.h"
#include "miner/gspan.h"
#include "tests/test_util.h"

namespace partminer {
namespace {

/// Bit-identical result check: same patterns in the SAME insertion order,
/// with equal supports, TID lists and exactness flags. This is strictly
/// stronger than set equality — it is what the deterministic merge of
/// task-local subtree results guarantees.
void ExpectBitIdentical(const PatternSet& serial, const PatternSet& parallel,
                        const std::string& what) {
  ASSERT_EQ(serial.size(), parallel.size()) << what;
  for (int i = 0; i < serial.size(); ++i) {
    const PatternInfo& a = serial.patterns()[i];
    const PatternInfo& b = parallel.patterns()[i];
    EXPECT_EQ(a.code.ToString(), b.code.ToString())
        << what << ": order diverges at index " << i;
    EXPECT_EQ(a.support, b.support) << what << ": " << a.code.ToString();
    EXPECT_EQ(a.tids, b.tids) << what << ": " << a.code.ToString();
    EXPECT_EQ(a.exact_tids, b.exact_tids) << what << ": " << a.code.ToString();
  }
}

GraphDatabase DenseDatabase(uint64_t seed) {
  Rng rng(seed);
  return testutil::RandomDatabase(&rng, 20, 10, 4, 3, 2);
}

TEST(ParallelMineTest, GSpanIdenticalAcrossThreadCounts) {
  const GraphDatabase db = DenseDatabase(7);
  GSpanMiner miner;

  MinerOptions serial;
  serial.min_support = 3;
  FrontierMap serial_frontier;
  serial.capture_frontier = &serial_frontier;
  const PatternSet expected = miner.Mine(db, serial);
  ASSERT_GT(expected.size(), 0);

  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    MinerOptions parallel;
    parallel.min_support = 3;
    parallel.pool = &pool;
    parallel.parallel_spawn_min_embeddings = 1;  // Force subtree fan-out.
    FrontierMap frontier;
    parallel.capture_frontier = &frontier;
    const PatternSet got = miner.Mine(db, parallel);
    ExpectBitIdentical(expected, got,
                       "gspan threads=" + std::to_string(threads));
    EXPECT_EQ(serial_frontier == frontier, true)
        << "gspan frontier diverged at threads=" << threads;
  }
}

TEST(ParallelMineTest, GastonIdenticalAcrossThreadCounts) {
  const GraphDatabase db = DenseDatabase(11);
  GastonMiner serial_miner;

  MinerOptions serial;
  serial.min_support = 3;
  FrontierMap serial_frontier;
  serial.capture_frontier = &serial_frontier;
  const PatternSet expected = serial_miner.Mine(db, serial);
  ASSERT_GT(expected.size(), 0);
  const GastonStats serial_stats = serial_miner.stats();

  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    GastonMiner miner;
    MinerOptions parallel;
    parallel.min_support = 3;
    parallel.pool = &pool;
    parallel.parallel_spawn_min_embeddings = 1;
    FrontierMap frontier;
    parallel.capture_frontier = &frontier;
    const PatternSet got = miner.Mine(db, parallel);
    ExpectBitIdentical(expected, got,
                       "gaston threads=" + std::to_string(threads));
    EXPECT_EQ(serial_frontier == frontier, true)
        << "gaston frontier diverged at threads=" << threads;
    // Phase statistics are sums over the same subtrees — identical too.
    EXPECT_EQ(serial_stats.frequent_paths, miner.stats().frequent_paths);
    EXPECT_EQ(serial_stats.frequent_trees, miner.stats().frequent_trees);
    EXPECT_EQ(serial_stats.frequent_cyclic, miner.stats().frequent_cyclic);
    EXPECT_EQ(serial_stats.path_fast_checks, miner.stats().path_fast_checks);
    EXPECT_EQ(serial_stats.generic_min_checks,
              miner.stats().generic_min_checks);
  }
}

TEST(ParallelMineTest, PartMinerIdenticalAcrossThreadCounts) {
  const GraphDatabase db = DenseDatabase(13);

  PartMinerOptions serial;
  serial.min_support_count = 3;
  serial.partition.k = 4;
  serial.unit_mining_threads = 0;
  PartMiner serial_miner(serial);
  const PatternSet expected = serial_miner.Mine(db).patterns;
  ASSERT_GT(expected.size(), 0);

  for (const int threads : {1, 2, 8}) {
    PartMinerOptions options = serial;
    options.unit_mining_threads = threads;
    PartMiner miner(options);
    ExpectBitIdentical(expected, miner.Mine(db).patterns,
                       "partminer threads=" + std::to_string(threads));
  }
}

TEST(ParallelMineTest, IncPartMinerIdenticalAcrossThreadCounts) {
  GeneratorParams params;
  params.num_graphs = 16;
  params.avg_edges = 10;
  params.num_labels = 5;
  params.num_kernels = 8;
  params.avg_kernel_edges = 3;
  params.seed = 77;

  auto run = [&](int threads) {
    GraphDatabase db = GenerateDatabase(params);
    AssignUpdateHotspots(&db, 0.2, 78);
    PartMinerOptions options;
    options.min_support_count = 4;
    options.partition.k = 4;
    options.unit_mining_threads = threads;
    PartMiner miner(options);
    miner.Mine(db);
    UpdateOptions upd;
    upd.fraction_graphs = 0.5;
    upd.seed = 79;
    const UpdateLog log = ApplyUpdates(&db, 5, upd);
    IncPartMiner inc;
    return inc.Update(&miner, db, log);
  };

  const IncPartMinerResult expected = run(0);
  ASSERT_GT(expected.patterns.size(), 0);
  for (const int threads : {1, 2, 8}) {
    const IncPartMinerResult got = run(threads);
    const std::string what = "inc threads=" + std::to_string(threads);
    ExpectBitIdentical(expected.patterns, got.patterns, what);
    ExpectBitIdentical(expected.uf, got.uf, what + " uf");
    ExpectBitIdentical(expected.if_, got.if_, what + " if");
    ExpectBitIdentical(expected.fi, got.fi, what + " fi");
    EXPECT_EQ(expected.remined_units.bits(), got.remined_units.bits()) << what;
  }
}

}  // namespace
}  // namespace partminer
