// Figure 15: effect of the number of units k (2..6).
//   (a) static:  ADIMINE (flat) vs PartMiner aggregate (serial) and
//       parallel (max over units) time of the paper pipeline.
//   (b) dynamic: ADIMINE (rebuild + remine) vs IncPartMiner. An update
//       round mines no unit (only the root's incremental merge) and does
//       not read k, so its aggregate and parallel times coincide and one
//       row is printed.
//
// Paper shape: more units -> more total work (aggregate grows with k);
// parallel PartMiner beats the serial baseline; IncPartMiner beats ADIMINE
// in both modes dynamically.
//
// Flags: --mode, --scale, --d/--t/--n/--l/--i/--seed, --sup (default 4%),
//        --update-fraction, --io-delay-us.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "adi/adi_miner.h"
#include "bench/bench_common.h"
#include "common/timing.h"
#include "core/inc_part_miner.h"
#include "core/part_miner.h"
#include "datagen/update_generator.h"

namespace partminer {
namespace bench {
namespace {

double AdiSeconds(const GraphDatabase& db, double sup, int io_delay_us,
                  const PoolSizing& pool, bool rebuild_only) {
  AdiMineOptions adi_opts;
  adi_opts.io_delay_us = io_delay_us;
  adi_opts.pool = pool;
  AdiMine adi(adi_opts);
  if (rebuild_only) {
    // Model the dynamic case: the pre-update index already exists; timing
    // covers rebuild + remine on the current database.
    adi.BuildIndex(db);
  }
  Stopwatch watch;
  adi.BuildIndex(db);
  MinerOptions options;
  options.min_support =
      std::max(1, static_cast<int>(std::ceil(sup * db.size())));
  adi.Mine(options);
  return watch.ElapsedSeconds();
}

void RunStatic(const WorkloadSpec& spec, double sup, int io_delay_us,
               const PoolSizing& pool) {
  GraphDatabase db = MakeWorkload(spec);
  const double adi_seconds =
      AdiSeconds(db, sup, io_delay_us, pool, false);
  for (int k = 2; k <= 6; ++k) {
    PrintRow("fig15a", "ADIMINE", k, adi_seconds);
    PartMinerOptions options;
    options.min_support_fraction = sup;
    options.partition.k = k;
    const PartMinerResult result = MinePaperPipeline(db, options);
    PrintRow("fig15a", "Aggregate time", k, result.AggregateSeconds());
    PrintRow("fig15a", "Parallel time", k, result.ParallelSeconds());
  }
}

void RunDynamic(const WorkloadSpec& spec, double sup, double update_fraction,
                int io_delay_us, const PoolSizing& pool) {
  for (int k = 2; k <= 6; ++k) {
    GraphDatabase db = MakeWorkload(spec);
    PartMinerOptions options;
    options.min_support_fraction = sup;
    options.partition.k = k;
    PartMiner miner(options);
    miner.Mine(db);

    UpdateOptions upd;
    upd.fraction_graphs = update_fraction;
    upd.hotspot_locality = 1.0;
    upd.seed = spec.seed + 77;
    const UpdateLog log = ApplyUpdates(&db, spec.n, upd);

    PrintRow("fig15b", "ADIMINE", k,
             AdiSeconds(db, sup, io_delay_us, pool, true));

    IncPartMiner inc;
    const IncPartMinerResult result = inc.ApplyRound(&miner, db, log);
    PrintRow("fig15b", "IncPartMiner", k, result.AggregateSeconds());
  }
}

}  // namespace
}  // namespace bench
}  // namespace partminer

int main(int argc, char** argv) {
  using namespace partminer::bench;
  const Flags flags(argc, argv);
  WorkloadSpec spec = WorkloadSpec::FromFlags(flags);
  // The paper uses D100kT20N20L200I9 here; scale I accordingly by default.
  if (!flags.Has("i")) spec.i = 9;
  const double sup = flags.GetDouble("sup", 0.04);
  const double update_fraction = flags.GetDouble("update-fraction", 0.4);
  const int io_delay_us = flags.GetInt("io-delay-us", 1000);
  // 32 frames: pool smaller than the page file, so ADI runs pay eviction.
  const partminer::PoolSizing pool = PoolSizingFromFlags(flags, 32);
  const std::string mode = flags.GetString("mode", "both");

  PrintHeader("fig15",
              "runtime vs number of units k (paper Fig. 15: aggregate grows "
              "with k, parallel time stays low)",
              spec.Tag());
  if (mode == "static" || mode == "both") {
    RunStatic(spec, sup, io_delay_us, pool);
  }
  if (mode == "dynamic" || mode == "both") {
    RunDynamic(spec, sup, update_fraction, io_delay_us, pool);
  }
  MaybeWriteMetrics(flags, "fig15");
  return 0;
}
