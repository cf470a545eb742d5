// Calibration probe (not a paper figure): times gSpan / PartMiner / AdiMine
// on one workload configuration. Used to pick defaults for the figure
// harnesses; kept in-tree because it is handy when porting the benches to a
// new machine.
//
// Flags: --d --t --n --l --i --seed --sup (fraction) --k --max-edges

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>

#include "adi/adi_miner.h"
#include "bench/bench_common.h"
#include "common/timing.h"
#include "core/inc_part_miner.h"
#include "datagen/update_generator.h"
#include "core/part_miner.h"
#include "miner/gspan.h"

int main(int argc, char** argv) {
  using namespace partminer;
  using namespace partminer::bench;
  const Flags flags(argc, argv);
  const WorkloadSpec spec = WorkloadSpec::FromFlags(flags);
  const double sup = flags.GetDouble("sup", 0.02);
  const int k = flags.GetInt("k", 2);
  const int max_edges = flags.GetInt("max-edges", INT_MAX);

  Stopwatch gen_watch;
  GraphDatabase db = MakeWorkload(spec);
  std::printf("workload %s: %d graphs, %lld edges (%.2fs to generate)\n",
              spec.Tag().c_str(), db.size(),
              static_cast<long long>(db.TotalEdges()),
              gen_watch.ElapsedSeconds());
  const int sup_count =
      std::max(1, static_cast<int>(std::ceil(sup * db.size())));
  std::printf("min support: %.1f%% = %d graphs\n", sup * 100, sup_count);

  {
    Stopwatch watch;
    GSpanMiner gspan;
    MinerOptions options;
    options.min_support = sup_count;
    options.max_edges = max_edges;
    const PatternSet patterns = gspan.Mine(db, options);
    std::printf("gSpan:     %7.2fs  %6d patterns (max %d edges)\n",
                watch.ElapsedSeconds(), patterns.size(),
                patterns.MaxEdgeCount());
  }
  {
    Stopwatch watch;
    AdiMine adi;
    adi.BuildIndex(db);
    const double build = watch.ElapsedSeconds();
    MinerOptions options;
    options.min_support = sup_count;
    options.max_edges = max_edges;
    const PatternSet patterns = adi.Mine(options);
    std::printf("AdiMine:   %7.2fs  %6d patterns (index build %.2fs, %lld "
                "pages)\n",
                watch.ElapsedSeconds(), patterns.size(), build,
                static_cast<long long>(adi.index().pages_used()));
  }
  {
    Stopwatch watch;
    PartMinerOptions options;
    options.min_support_fraction = sup;
    options.min_support_count = sup_count;
    options.partition.k = k;
    options.max_edges = max_edges;
    const PartMinerResult r = MinePaperPipeline(db, options);
    std::printf(
        "PartMiner: %7.2fs  %6d patterns (partition %.2fs, units sum %.2fs "
        "max %.2fs, merge %.2fs)\n",
        watch.ElapsedSeconds(), r.patterns.size(), r.partition_seconds,
        r.UnitSecondsSum(), r.UnitSecondsMax(), r.merge_seconds);
    std::printf(
        "  merge stats: inherited %lld, counted %lld, cross-partition %lld\n",
        static_cast<long long>(r.merge_stats.inherited_patterns),
        static_cast<long long>(r.merge_stats.candidates_counted),
        static_cast<long long>(r.merge_stats.spanning_found));
  }
  {
    // Incremental path: mine, update 40% of graphs, IncPartMiner.
    GraphDatabase dyn = MakeWorkload(spec);
    PartMinerOptions options;
    options.min_support_fraction = sup;
    options.min_support_count = sup_count;
    options.max_edges = max_edges;
    PartMiner miner(options);
    miner.Mine(dyn);

    UpdateOptions upd;
    upd.fraction_graphs = flags.GetDouble("update-fraction", 0.4);
    upd.seed = spec.seed + 99;
    const UpdateLog log = ApplyUpdates(&dyn, spec.n, upd);

    Stopwatch watch;
    IncPartMiner inc;
    const IncPartMinerResult r = inc.ApplyRound(&miner, dyn, log);
    std::printf(
        "IncPart:   %7.2fs  %6d patterns (merge %.3fs, %zu graphs "
        "updated)\n",
        watch.ElapsedSeconds(), miner.patterns().size(), r.merge_seconds,
        log.updated_graphs.size());
    std::printf(
        "  inc merge stats: cached %lld, delta %lld, generated %lld, "
        "counted %lld, new %lld\n",
        static_cast<long long>(r.merge_stats.cached_patterns),
        static_cast<long long>(r.merge_stats.delta_recounts),
        static_cast<long long>(r.merge_stats.candidates_generated),
        static_cast<long long>(r.merge_stats.candidates_counted),
        static_cast<long long>(r.merge_stats.spanning_found));
  }
  return 0;
}
