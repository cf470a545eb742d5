// Figure 17: IncPartMiner vs ADIMINE as the amount of updates grows from
// 20% to 80% of the database (minsup 4%).
//   (a) relabel updates (vertex/edge labels, existing or new labels);
//   (b) structural additions (new edges and new vertices).
//
// Paper sweep: 20%-80%; this harness adds 2%-10% points to expose the
// delta regime where the incremental advantage is largest.
// Paper shape: ADIMINE is flat and high (it always rebuilds + remines);
// IncPartMiner grows roughly linearly with the update amount and stays
// below ADIMINE across the sweep. The harness also reports the incremental
// candidate accounting (counted vs skipped-known) that explains the gap.
//
// Flags: --kind=relabel|add|both, --scale, --d/--t/--n/--l/--i/--seed,
//        --sup, --io-delay-us.

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

void RunSweep(const char* figure, const WorkloadSpec& spec, double sup,
              int io_delay_us, const PoolSizing& pool,
              std::vector<UpdateKind> kinds) {
  for (const double fraction : {0.02, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8}) {
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
    upd.fraction_graphs = fraction;
    upd.hotspot_locality = 1.0;
    upd.kinds = std::move(kinds);
    upd.seed = spec.seed + 55;
    const UpdateLog log = ApplyUpdates(&db, spec.n, upd);
    kinds = upd.kinds;

    Stopwatch adi_watch;
    adi.RebuildIndex(db);
    MinerOptions adi_options;
    adi_options.min_support =
        std::max(1, static_cast<int>(std::ceil(sup * db.size())));
    adi.Mine(adi_options);
    PrintRow(figure, "ADIMINE", fraction * 100, adi_watch.ElapsedSeconds());

    IncPartMiner inc;
    const IncPartMinerResult result = inc.ApplyRound(&miner, db, log);
    PrintRow(figure, "IncPartMiner", fraction * 100,
             result.AggregateSeconds());
    std::printf(
        "# %s updates=%.0f%%: cached %lld, counted %lld, skipped-known "
        "%lld, UF %d FI %d IF %d\n",
        figure, fraction * 100,
        static_cast<long long>(result.merge_stats.cached_patterns),
        static_cast<long long>(result.merge_stats.candidates_counted),
        static_cast<long long>(result.merge_stats.candidates_skipped_known),
        result.uf, result.fi.size(), result.if_.size());
  }
}

}  // namespace
}  // namespace bench
}  // namespace partminer

int main(int argc, char** argv) {
  using namespace partminer::bench;
  using partminer::UpdateKind;
  const Flags flags(argc, argv);
  const WorkloadSpec spec = WorkloadSpec::FromFlags(flags);
  const double sup = flags.GetDouble("sup", 0.04);
  const int io_delay_us = flags.GetInt("io-delay-us", 1000);
  // 32 frames: pool smaller than the page file, so ADI runs pay eviction.
  const partminer::PoolSizing pool = PoolSizingFromFlags(flags, 32);
  const std::string kind = flags.GetString("kind", "both");

  PrintHeader("fig17",
              "effect of update amount and type (paper Fig. 17: IncPartMiner "
              "below ADIMINE across 20%-80% updates)",
              spec.Tag());
  if (kind == "relabel" || kind == "both") {
    RunSweep("fig17a", spec, sup, io_delay_us, pool,
             {UpdateKind::kRelabel});
  }
  if (kind == "add" || kind == "both") {
    RunSweep("fig17b", spec, sup, io_delay_us, pool,
             {UpdateKind::kAddEdge, UpdateKind::kAddVertex});
  }
  MaybeWriteMetrics(flags, "fig17");
  return 0;
}
