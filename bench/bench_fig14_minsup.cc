// Figure 14: runtime vs minimum support (1%-6%).
//   (a) static:  ADIMINE vs PartMiner.
//   (b) dynamic: ADIMINE (rebuild + remine) vs PartMiner (full re-run) vs
//       IncPartMiner, after updating a fraction of the database.
//
// Flags: --mode=static|dynamic|both (default both), --scale, --d, --t, --n,
//        --l, --i, --seed, --k (units, default 2),
//        --update-fraction (default 0.4).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "adi/adi_miner.h"
#include "bench/bench_common.h"
#include "common/timing.h"
#include "core/inc_part_miner.h"
#include "core/part_miner.h"
#include "datagen/update_generator.h"

namespace partminer {
namespace bench {
namespace {

constexpr double kSupports[] = {0.01, 0.02, 0.03, 0.04, 0.05, 0.06};

void RunStatic(const WorkloadSpec& spec, int k, int io_delay_us,
               const PoolSizing& pool) {
  for (const double sup : kSupports) {
    GraphDatabase db = MakeWorkload(spec);

    AdiMineOptions adi_opts;
    adi_opts.io_delay_us = io_delay_us;
    adi_opts.pool = pool;
    AdiMine adi(adi_opts);
    Stopwatch adi_watch;
    adi.BuildIndex(db);
    MinerOptions adi_options;
    adi_options.min_support =
        std::max(1, static_cast<int>(std::ceil(sup * db.size())));
    adi.Mine(adi_options);
    PrintRow("fig14a", "ADIMINE", sup * 100, adi_watch.ElapsedSeconds());

    PartMinerOptions options;
    options.min_support_fraction = sup;
    options.partition.k = k;
    const PartMinerResult result = MinePaperPipeline(db, options);
    PrintRow("fig14a", "PartMiner", sup * 100, result.AggregateSeconds());
  }
}

void RunDynamic(const WorkloadSpec& spec, int k, double update_fraction,
                int io_delay_us, const PoolSizing& pool) {
  for (const double sup : kSupports) {
    GraphDatabase db = MakeWorkload(spec);

    // Pre-update state for the incremental miner.
    PartMinerOptions options;
    options.min_support_fraction = sup;
    options.partition.k = k;
    PartMiner miner(options);
    miner.Mine(db);

    AdiMineOptions adi_opts;
    adi_opts.io_delay_us = io_delay_us;
    adi_opts.pool = pool;
    AdiMine adi(adi_opts);
    adi.BuildIndex(db);

    UpdateOptions upd;
    upd.fraction_graphs = update_fraction;
    upd.hotspot_locality = 1.0;
    upd.seed = spec.seed + 17;
    const UpdateLog log = ApplyUpdates(&db, spec.n, upd);

    // ADIMINE: full index rebuild plus full re-mine.
    Stopwatch adi_watch;
    adi.RebuildIndex(db);
    MinerOptions adi_options;
    adi_options.min_support =
        std::max(1, static_cast<int>(std::ceil(sup * db.size())));
    adi.Mine(adi_options);
    PrintRow("fig14b", "ADIMINE", sup * 100, adi_watch.ElapsedSeconds());

    // PartMiner: full re-run on the updated database.
    PartMiner fresh(options);
    const PartMinerResult full = fresh.Mine(db);
    PrintRow("fig14b", "PartMiner", sup * 100, full.AggregateSeconds());

    // IncPartMiner: incremental update of the cached state.
    IncPartMiner inc;
    const IncPartMinerResult result = inc.ApplyRound(&miner, db, log);
    PrintRow("fig14b", "IncPartMiner", sup * 100, result.AggregateSeconds());
  }
}

}  // namespace
}  // namespace bench
}  // namespace partminer

int main(int argc, char** argv) {
  using namespace partminer::bench;
  const Flags flags(argc, argv);
  const WorkloadSpec spec = WorkloadSpec::FromFlags(flags);
  const int k = flags.GetInt("k", 2);
  const double update_fraction = flags.GetDouble("update-fraction", 0.1);
  const int io_delay_us = flags.GetInt("io-delay-us", 1000);
  // 32 frames: pool smaller than the page file, so ADI runs pay eviction.
  const partminer::PoolSizing pool = PoolSizingFromFlags(flags, 32);
  const std::string mode = flags.GetString("mode", "both");

  PrintHeader("fig14",
              "runtime vs minimum support (paper Fig. 14: PartMiner ~ "
              "ADIMINE statically, IncPartMiner dominates dynamically)",
              spec.Tag());
  if (mode == "static" || mode == "both") {
    RunStatic(spec, k, io_delay_us, pool);
  }
  if (mode == "dynamic" || mode == "both") {
    RunDynamic(spec, k, update_fraction, io_delay_us, pool);
  }
  MaybeWriteMetrics(flags, "fig14");
  return 0;
}
