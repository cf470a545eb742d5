// Figure 13: effect of the partitioning criteria.
//   (a) static:  ADIMINE, METIS, Partition1 (isolation), Partition2
//       (min-cut), Partition3 (combined) — runtime vs minsup 2%-6%.
//   (b) dynamic: ADIMINE and IncPartMiner after updating part of the
//       database; IncPartMiner updates a pre-mined state.
//
// The paper's observations to reproduce: the GraphPart criteria beat METIS;
// Partition2 is best statically; Partition3 is best dynamically (it both
// cuts few edges and isolates updated vertices, minimizing re-mined units).
// An update round here reads no partition, so (b) has one IncPartMiner
// series instead of one per criterion.
//
// Flags: --mode=static|dynamic|both, --scale, --d/--t/--n/--l/--i/--seed,
//        --k, --update-fraction, --io-delay-us.

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

constexpr double kSupports[] = {0.02, 0.03, 0.04, 0.05, 0.06};

struct Criteria {
  const char* name;
  PartitionCriteria value;
};
constexpr Criteria kCriteria[] = {
    {"METIS", PartitionCriteria::kMultilevel},
    {"Partition1", PartitionCriteria::kIsolation},
    {"Partition2", PartitionCriteria::kMinCut},
    {"Partition3", PartitionCriteria::kCombined},
};

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
    PrintRow("fig13a", "ADIMINE", sup * 100, adi_watch.ElapsedSeconds());

    for (const Criteria& c : kCriteria) {
      PartMinerOptions options;
      options.min_support_fraction = sup;
      options.partition.k = k;
      options.partition.criteria = c.value;
      const PartMinerResult result = MinePaperPipeline(db, options);
      PrintRow("fig13a", c.name, sup * 100, result.AggregateSeconds());
    }
  }
}

void RunDynamic(const WorkloadSpec& spec, double update_fraction,
                int io_delay_us, const PoolSizing& pool) {
  for (const double sup : kSupports) {
    GraphDatabase db = MakeWorkload(spec);
    PartMinerOptions options;
    options.min_support_fraction = sup;
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
    upd.seed = spec.seed + 31;
    const UpdateLog log = ApplyUpdates(&db, spec.n, upd);

    IncPartMiner inc;
    const IncPartMinerResult result = inc.ApplyRound(&miner, db, log);
    PrintRow("fig13b", "IncPartMiner", sup * 100, result.AggregateSeconds());

    // ADIMINE on the same updated workload: rebuild + remine.
    Stopwatch adi_watch;
    adi.RebuildIndex(db);
    MinerOptions adi_options;
    adi_options.min_support =
        std::max(1, static_cast<int>(std::ceil(sup * db.size())));
    adi.Mine(adi_options);
    PrintRow("fig13b", "ADIMINE", sup * 100, adi_watch.ElapsedSeconds());
  }
}

}  // namespace
}  // namespace bench
}  // namespace partminer

int main(int argc, char** argv) {
  using namespace partminer::bench;
  const Flags flags(argc, argv);
  const WorkloadSpec spec = WorkloadSpec::FromFlags(flags);
  const int k = flags.GetInt("k", 4);
  const double update_fraction = flags.GetDouble("update-fraction", 0.1);
  const int io_delay_us = flags.GetInt("io-delay-us", 1000);
  // 32 frames: pool smaller than the page file, so ADI runs pay eviction.
  const partminer::PoolSizing pool = PoolSizingFromFlags(flags, 32);
  const std::string mode = flags.GetString("mode", "both");

  PrintHeader("fig13",
              "partitioning criteria (paper Fig. 13: GraphPart beats METIS; "
              "Partition2 best statically, Partition3 best dynamically)",
              spec.Tag());
  if (mode == "static" || mode == "both") {
    RunStatic(spec, k, io_delay_us, pool);
  }
  if (mode == "dynamic" || mode == "both") {
    RunDynamic(spec, update_fraction, io_delay_us, pool);
  }
  MaybeWriteMetrics(flags, "fig13");
  return 0;
}
