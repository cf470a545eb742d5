// Slow-tier fuzzing: a deeper differential seed sweep and the full
// fault-injection grids (probabilistic p in {0.001, 0.01, 0.1} and
// scripted fail-once schedules over read/write/alloc). `ctest -L slow`
// runs these; tools/run_fuzz.sh runs the same sweeps under ASan.

#include <gtest/gtest.h>

#include "testing/differential.h"
#include "testing/fault_sweep.h"

namespace partminer {
namespace {

TEST(FuzzSlowTest, DifferentialSeedSweep) {
  for (uint64_t seed = 100; seed < 140; ++seed) {
    const testing::DifferentialResult result =
        testing::RunDifferentialSeed(seed, /*smoke=*/false);
    ASSERT_TRUE(result.ok()) << "seed " << seed << ":\n" << result.divergence;
  }
}

TEST(FuzzSlowTest, AdiFaultSweepHoldsContract) {
  const testing::FaultSweepOutcome outcome = testing::RunAdiFaultSweep(1);
  EXPECT_GT(outcome.runs, 100);
  // The grid must actually exercise both outcomes: injected faults that
  // surface as clean errors, and low-p runs that complete correctly.
  EXPECT_GT(outcome.clean_failures, 0);
  EXPECT_GT(outcome.successes, 0);
  for (const std::string& v : outcome.violations) ADD_FAILURE() << v;
}

TEST(FuzzSlowTest, StateIoFaultSweepHoldsContract) {
  const testing::FaultSweepOutcome outcome = testing::RunStateIoFaultSweep(2);
  EXPECT_GT(outcome.runs, 50);
  EXPECT_GT(outcome.clean_failures, 0);
  EXPECT_GT(outcome.successes, 0);  // The untampered control load.
  for (const std::string& v : outcome.violations) ADD_FAILURE() << v;
}

}  // namespace
}  // namespace partminer
