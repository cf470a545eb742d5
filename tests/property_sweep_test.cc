// Parameterized property sweeps across workload shapes: every miner and the
// canonical-form machinery exercised over a grid of graph sizes, label
// alphabets and densities.

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/canonical.h"
#include "miner/brute_force.h"
#include "miner/gaston.h"
#include "miner/gspan.h"
#include "tests/test_util.h"

namespace partminer {
namespace {

struct SweepCase {
  int graphs;
  int vertices;
  int extra_edges;
  int vertex_labels;
  int edge_labels;
  int min_support;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& c = info.param;
  return "g" + std::to_string(c.graphs) + "v" + std::to_string(c.vertices) +
         "e" + std::to_string(c.extra_edges) + "vl" +
         std::to_string(c.vertex_labels) + "el" +
         std::to_string(c.edge_labels) + "s" + std::to_string(c.min_support);
}

constexpr SweepCase kCases[] = {
    {6, 5, 1, 1, 1, 2, 11},   // Unlabeled-ish: heavy automorphisms.
    {6, 5, 3, 1, 1, 2, 12},   // Dense unlabeled.
    {8, 6, 2, 2, 1, 2, 13},
    {8, 6, 2, 4, 2, 2, 14},   // Diverse labels.
    {10, 7, 3, 3, 3, 3, 15},
    {8, 8, 0, 2, 2, 2, 16},   // Trees only.
    {6, 4, 4, 2, 2, 2, 17},   // Near-complete graphs.
    {12, 6, 2, 3, 2, 4, 18},  // Higher support.
};

class MinerSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(MinerSweep, AllMinersAgreeWithBruteForce) {
  const SweepCase& c = GetParam();
  Rng rng(c.seed);
  const GraphDatabase db = testutil::RandomDatabase(
      &rng, c.graphs, c.vertices, c.extra_edges, c.vertex_labels,
      c.edge_labels);
  MinerOptions options;
  options.min_support = c.min_support;
  options.max_edges = 5;  // Keeps brute force tractable on dense cases.

  BruteForceMiner brute;
  GSpanMiner gspan;
  GastonMiner gaston;

  const PatternSet expected = brute.Mine(db, options);
  const std::vector<std::string> want = expected.SortedCodeStrings();
  EXPECT_EQ(want, gspan.Mine(db, options).SortedCodeStrings()) << "gSpan";
  EXPECT_EQ(want, gaston.Mine(db, options).SortedCodeStrings()) << "Gaston";
}

class CanonicalSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(CanonicalSweep, GreedyEqualsExhaustiveAndPermutationInvariant) {
  const SweepCase& c = GetParam();
  Rng rng(c.seed * 31);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = testutil::RandomConnectedGraph(
        &rng, c.vertices, c.extra_edges, c.vertex_labels, c.edge_labels);
    const DfsCode greedy = MinimumDfsCode(g);
    EXPECT_EQ(greedy, MinimumDfsCodeExhaustive(g)) << g.DebugString();
    EXPECT_EQ(greedy, MinimumDfsCode(testutil::Permuted(&rng, g)));
    EXPECT_TRUE(IsMinimalDfsCode(greedy));
    EXPECT_EQ(MinimumDfsCode(greedy.ToGraph()), greedy);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MinerSweep, ::testing::ValuesIn(kCases),
                         CaseName);
INSTANTIATE_TEST_SUITE_P(Shapes, CanonicalSweep, ::testing::ValuesIn(kCases),
                         CaseName);

}  // namespace
}  // namespace partminer
