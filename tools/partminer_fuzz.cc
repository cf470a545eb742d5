// partminer_fuzz — differential fuzzing and storage-fault sweeps.
//
//   partminer_fuzz [--seeds=N] [--start-seed=S] [--smoke] [--no-faults]
//                  [--corpus=DIR] [--minimize=0|1]
//
// For each seed a small random database is generated and mined with every
// miner configuration (brute force, gSpan and Gaston serial/parallel, the
// paper pipeline at unit-mining threads 0/2/8, the disk-resident AdiMine,
// and the resident PartMiner followed by chained IncPartMiner rounds with
// relabels); all results are diffed against the brute-force oracle. Any
// divergence is minimized by greedy graph removal and written to the corpus
// directory as a replayable .lg repro. The run then replays every existing
// corpus repro (fixed bugs must stay fixed) and, unless --no-faults, sweeps
// storage fault injection over the ADI path, tampered snapshot files and
// the resident daemon.
//
// Exit status: 0 when everything agrees and every fault run ended
// correct-or-clean-error; 1 otherwise.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "common/flags.h"
#include "datagen/generator.h"
#include "testing/differential.h"
#include "testing/fault_sweep.h"

namespace partminer {
namespace {

using testing::DifferentialResult;
using testing::FaultSweepOutcome;
using testing::FuzzCaseParams;

int Run(int argc, char** argv) {
  const flags::FlagMap flag_map = flags::Parse(argc, argv);
  flags::WarnUnknown(flag_map, {"seeds", "start-seed", "smoke", "no-faults",
                                "corpus", "minimize"});
  const uint64_t seeds = std::strtoull(
      flags::Get(flag_map, "seeds", "100").c_str(), nullptr, 10);
  const uint64_t start = std::strtoull(
      flags::Get(flag_map, "start-seed", "0").c_str(), nullptr, 10);
  const bool smoke = flag_map.count("smoke") > 0;
  const bool faults = flag_map.count("no-faults") == 0;
  const bool minimize = flags::Get(flag_map, "minimize", "1") != "0";
  const std::string corpus =
      flags::Get(flag_map, "corpus", "data/corpus/divergence");

  int divergences = 0;
  int compacted_rounds = 0;
  for (uint64_t seed = start; seed < start + seeds; ++seed) {
    const FuzzCaseParams params = testing::MakeFuzzCase(seed, smoke);
    const GraphDatabase db = GenerateDatabase(params.gen);
    const DifferentialResult result = testing::RunAllChecks(db, params);
    compacted_rounds += result.compacted_rounds;
    if (result.ok()) {
      if (seed % 50 == 0 || seed + 1 == start + seeds) {
        std::printf("seed %llu ok (%d configurations)\n",
                    static_cast<unsigned long long>(seed),
                    result.configurations);
        std::fflush(stdout);
      }
      continue;
    }
    ++divergences;
    std::fprintf(stderr, "DIVERGENCE at seed %llu:\n%s\n",
                 static_cast<unsigned long long>(seed),
                 result.divergence.c_str());
    const GraphDatabase minimized =
        minimize ? testing::MinimizeDivergence(db, params) : db;
    std::ostringstream path;
    path << corpus << "/seed_" << seed << ".lg";
    const Status written = testing::WriteReproFile(
        path.str(), minimized, params, result.divergence);
    if (written.ok()) {
      std::fprintf(stderr, "  minimized repro (%d graphs) -> %s\n",
                   minimized.size(), path.str().c_str());
    } else {
      std::fprintf(stderr, "  could not write repro: %s\n",
                   written.ToString().c_str());
    }
  }
  std::printf(
      "differential: %llu seeds, %d divergences, %d compacted rounds\n",
      static_cast<unsigned long long>(seeds), divergences, compacted_rounds);

  // Replay the checked-in corpus: previously found (and since fixed)
  // divergences must stay fixed.
  int replay_divergences = 0, replayed = 0;
  const Status replay =
      testing::ReplayReproDir(corpus, &replay_divergences, &replayed);
  if (!replay.ok()) {
    std::fprintf(stderr, "corpus replay failed: %s\n",
                 replay.ToString().c_str());
    return 1;
  }
  std::printf("corpus replay: %d repros, %d still diverge\n", replayed,
              replay_divergences);

  int fault_violations = 0;
  if (faults) {
    const FaultSweepOutcome adi = testing::RunAdiFaultSweep(start + 1);
    std::printf(
        "adi fault sweep: %d runs, %d clean failures, %d correct, "
        "%zu violations\n",
        adi.runs, adi.clean_failures, adi.successes, adi.violations.size());
    for (const std::string& v : adi.violations) {
      std::fprintf(stderr, "VIOLATION (adi): %s\n", v.c_str());
    }
    fault_violations += static_cast<int>(adi.violations.size());
    const FaultSweepOutcome tamper =
        testing::RunSnapshotTamperSweep(start + 2);
    std::printf(
        "snapshot tamper sweep: %d runs, %d clean failures, %d correct, "
        "%zu violations\n",
        tamper.runs, tamper.clean_failures, tamper.successes,
        tamper.violations.size());
    for (const std::string& v : tamper.violations) {
      std::fprintf(stderr, "VIOLATION (snapshot): %s\n", v.c_str());
    }
    const FaultSweepOutcome daemon = testing::RunDaemonFaultSweep(start + 3);
    std::printf(
        "daemon fault sweep: %d runs, %d clean failures, %d correct, "
        "%zu violations\n",
        daemon.runs, daemon.clean_failures, daemon.successes,
        daemon.violations.size());
    for (const std::string& v : daemon.violations) {
      std::fprintf(stderr, "VIOLATION (daemon): %s\n", v.c_str());
    }
    fault_violations += static_cast<int>(tamper.violations.size()) +
                        static_cast<int>(daemon.violations.size());
  }

  return (divergences == 0 && replay_divergences == 0 &&
          fault_violations == 0)
             ? 0
             : 1;
}

}  // namespace
}  // namespace partminer

int main(int argc, char** argv) { return partminer::Run(argc, argv); }
