// Figure 16: scalability of PartMiner vs ADIMINE at minsup 4%.
//   (a) varying the average graph size T in {10, 15, 20, 25};
//   (b) varying the database size D (the paper sweeps 50k..1M; the default
//       here sweeps the same 20x range at laptop scale: 250..5000).
//
// Paper shape: PartMiner scales linearly in both T and D and stays below
// ADIMINE.
//
// Flags: --axis=T|D|both, --scale, --d/--t/--n/--l/--i/--seed, --sup,
//        --k, --io-delay-us, --threads (work-stealing pool width for
//        PartMiner unit mining; 0 = serial).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "adi/adi_miner.h"
#include "bench/bench_common.h"
#include "common/timing.h"
#include "core/part_miner.h"

namespace partminer {
namespace bench {
namespace {

void RunPoint(const char* figure, double x, const WorkloadSpec& spec,
              double sup, int k, int io_delay_us, int threads,
              const PoolSizing& pool) {
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
  PrintRow(figure, "ADIMINE", x, adi_watch.ElapsedSeconds());

  PartMinerOptions options;
  options.min_support_fraction = sup;
  options.partition.k = k;
  options.unit_mining_threads = threads;
  const PartMinerResult result = MinePaperPipeline(db, options);
  PrintRow(figure, "PartMiner", x, result.AggregateSeconds());
}

}  // namespace
}  // namespace bench
}  // namespace partminer

int main(int argc, char** argv) {
  using namespace partminer::bench;
  const Flags flags(argc, argv);
  const WorkloadSpec base = WorkloadSpec::FromFlags(flags);
  const double sup = flags.GetDouble("sup", 0.04);
  const int k = flags.GetInt("k", 2);
  const int io_delay_us = flags.GetInt("io-delay-us", 1000);
  const int threads = flags.GetInt("threads", 0);
  // 32 frames: pool smaller than the page file, so ADI runs pay eviction.
  const partminer::PoolSizing pool = PoolSizingFromFlags(flags, 32);
  const std::string axis = flags.GetString("axis", "both");

  PrintHeader("fig16",
              "scalability vs T and D at minsup 4% (paper Fig. 16: linear, "
              "PartMiner below ADIMINE)",
              base.Tag());

  if (axis == "T" || axis == "both") {
    for (const int t : {10, 15, 20, 25}) {
      WorkloadSpec spec = base;
      spec.t = t;
      RunPoint("fig16a", t, spec, sup, k, io_delay_us, threads, pool);
    }
  }
  if (axis == "D" || axis == "both") {
    // Same 20x span as the paper's 50k..1M, scaled by base.d/500.
    for (const int d_factor : {1, 2, 4, 6, 8, 10}) {
      WorkloadSpec spec = base;
      spec.d = base.d * d_factor / 2;
      spec.l = std::max(3, base.l * d_factor / 2);
      RunPoint("fig16b", spec.d, spec, sup, k, io_delay_us, threads,
               pool);
    }
  }
  MaybeWriteMetrics(flags, "fig16");
  return 0;
}
