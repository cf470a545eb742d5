// Fast-tier coverage of the differential fuzzing harness itself: a handful
// of seeds through the full miner matrix, repro read/write plumbing, and
// the checked-in divergence-corpus replay. The heavy sweeps (hundreds of
// seeds, full fault-injection grids) run in fuzz_slow_test.cc and
// tools/run_fuzz.sh under the `slow` label.

#include "testing/differential.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "datagen/generator.h"
#include "testing/fault_sweep.h"

namespace partminer {
namespace {

TEST(FuzzSmokeTest, SmallSeedSweepHasNoDivergence) {
  int compacted_rounds = 0;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const testing::DifferentialResult result =
        testing::RunDifferentialSeed(seed, /*smoke=*/true);
    EXPECT_TRUE(result.ok()) << "seed " << seed << ":\n" << result.divergence;
    EXPECT_EQ(result.configurations, 12) << "matrix lost configurations";
    compacted_rounds += result.compacted_rounds;
  }
  // The chained rounds must keep reaching the frontier compaction.
  EXPECT_GT(compacted_rounds, 0);
}

TEST(FuzzSmokeTest, CaseParamsAreDeterministic) {
  const testing::FuzzCaseParams a = testing::MakeFuzzCase(41, true);
  const testing::FuzzCaseParams b = testing::MakeFuzzCase(41, true);
  EXPECT_EQ(a.gen.num_graphs, b.gen.num_graphs);
  EXPECT_EQ(a.gen.seed, b.gen.seed);
  EXPECT_EQ(a.min_support, b.min_support);
  EXPECT_EQ(a.max_edges, b.max_edges);
  EXPECT_EQ(a.k, b.k);
  // Different seeds explore different configurations.
  const testing::FuzzCaseParams c = testing::MakeFuzzCase(42, true);
  EXPECT_NE(a.gen.seed, c.gen.seed);
}

TEST(FuzzSmokeTest, ReproFilesRoundTrip) {
  const testing::FuzzCaseParams params = testing::MakeFuzzCase(3, true);
  const GraphDatabase db = GenerateDatabase(params.gen);

  const std::string path = "/tmp/partminer_fuzz_repro_" +
                           std::to_string(::getpid()) + ".lg";
  ASSERT_TRUE(
      testing::WriteReproFile(path, db, params, "synthetic divergence").ok());

  testing::DifferentialResult replayed;
  const Status status = testing::ReplayReproFile(path, &replayed);
  ASSERT_TRUE(status.ok()) << status.ToString();
  // The database is healthy, so the replayed matrix agrees; what matters is
  // that the full configuration matrix ran from the persisted parameters.
  EXPECT_TRUE(replayed.ok()) << replayed.divergence;
  EXPECT_EQ(replayed.configurations, 12);
  std::remove(path.c_str());
}

TEST(FuzzSmokeTest, ReplayRejectsFilesWithoutReproHeader) {
  const std::string path = "/tmp/partminer_fuzz_bad_" +
                           std::to_string(::getpid()) + ".lg";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("t # 0\nv 0 1\n", f);
  fclose(f);
  testing::DifferentialResult result;
  EXPECT_EQ(testing::ReplayReproFile(path, &result).code(),
            Status::Code::kCorruption);
  std::remove(path.c_str());
}

TEST(FuzzSmokeTest, MinimizeKeepsPassingDatabasesIntact) {
  // Minimization only removes graphs while the divergence persists; on a
  // healthy database it must return the input unchanged.
  const testing::FuzzCaseParams params = testing::MakeFuzzCase(2, true);
  const GraphDatabase db = GenerateDatabase(params.gen);
  const GraphDatabase minimized = testing::MinimizeDivergence(db, params);
  EXPECT_EQ(minimized.size(), db.size());
}

// The checked-in corpus replay: every divergence the fuzzer ever minimized
// into data/corpus/divergence/ must stay fixed.
TEST(FuzzReplayTest, DivergenceCorpusStaysFixed) {
  const std::string dir =
      std::string(PARTMINER_SOURCE_DIR) + "/data/corpus/divergence";
  int divergences = -1, replayed = -1;
  const Status status =
      testing::ReplayReproDir(dir, &divergences, &replayed);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_GE(replayed, 1);  // At least the relabel-drift repro.
  EXPECT_EQ(divergences, 0) << replayed << " repros, " << divergences
                            << " still diverge";
}

}  // namespace
}  // namespace partminer
