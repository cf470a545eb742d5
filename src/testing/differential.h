#ifndef PARTMINER_TESTING_DIFFERENTIAL_H_
#define PARTMINER_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "datagen/generator.h"
#include "graph/graph.h"
#include "miner/pattern_set.h"

namespace partminer {
namespace testing {

/// Everything that determines one fuzz case besides the database itself.
/// Derived deterministically from the case seed (MakeFuzzCase), persisted in
/// repro headers so corpus replays re-run the exact configuration.
struct FuzzCaseParams {
  uint64_t seed = 0;
  GeneratorParams gen;
  int min_support = 2;
  int max_edges = 4;
  int k = 2;
};

/// Derives the generator and mining parameters for `seed`. Smoke mode keeps
/// databases small enough that a full miner matrix finishes in milliseconds;
/// full mode stretches every dimension further.
FuzzCaseParams MakeFuzzCase(uint64_t seed, bool smoke);

/// Outcome of one differential case.
struct DifferentialResult {
  /// Miner configurations whose results were compared against the oracle.
  int configurations = 0;
  /// Chained incremental rounds that compacted the root frontier.
  int compacted_rounds = 0;
  /// Empty when every configuration agreed; otherwise a human-readable
  /// description of the first divergence (which configurations, and how the
  /// pattern sets differ).
  std::string divergence;

  bool ok() const { return divergence.empty(); }
};

/// Diffs `actual` against `expected`: the same codes, supports and TID
/// sets. Returns "" on agreement, else a description naming `actual` as
/// `name`, capped at five differences.
std::string DiffAgainstOracle(const PatternSet& expected,
                              const PatternSet& actual,
                              const std::string& name);

/// Mines `db` with every miner configuration — brute force (the oracle),
/// gSpan and Gaston (serial, and on work-stealing pools of 2 and 8
/// threads), the paper pipeline (MinePaperPipeline at unit-mining threads
/// 0/2/8), the disk-resident AdiMine on a deliberately tiny buffer pool,
/// and one PartMiner::Mine (on a 2-wide pool for odd seeds) followed by
/// chained IncPartMiner rounds (seeded updates with relabels, each round's
/// result vs from-scratch re-mining)
/// — 12 configurations in all — and diffs every result
/// (codes, supports, exact TID sets) against the oracle. Theorems 1–3 of
/// the paper say all of these must be identical; any difference is a bug
/// in one of them.
DifferentialResult RunAllChecks(const GraphDatabase& db,
                                const FuzzCaseParams& params);

/// Generates the database for `seed` and runs RunAllChecks.
DifferentialResult RunDifferentialSeed(uint64_t seed, bool smoke);

/// Greedily removes graphs from `db` while RunAllChecks still diverges,
/// returning a (locally) minimal database that reproduces the failure.
GraphDatabase MinimizeDivergence(const GraphDatabase& db,
                                 const FuzzCaseParams& params);

/// Writes `db` as a normal .lg file whose header comments record the case
/// parameters and the divergence summary, so ReplayReproFile can re-run it.
Status WriteReproFile(const std::string& path, const GraphDatabase& db,
                      const FuzzCaseParams& params,
                      const std::string& divergence);

/// Loads a repro written by WriteReproFile and re-runs the full check
/// matrix on it. `*result` reports whether the divergence still reproduces.
Status ReplayReproFile(const std::string& path, DifferentialResult* result);

/// Replays every .lg repro in `dir` (missing or empty directory is OK —
/// it means no divergence has ever been found). Returns non-OK if any file
/// fails to load; `*divergences` counts repros that still diverge.
Status ReplayReproDir(const std::string& dir, int* divergences,
                      int* replayed);

}  // namespace testing
}  // namespace partminer

#endif  // PARTMINER_TESTING_DIFFERENTIAL_H_
