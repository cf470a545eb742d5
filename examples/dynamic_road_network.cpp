// Dynamic scenario from the paper's introduction: spatio-temporal data
// modeled as graphs under a continuous stream of updates. A fleet of
// "district maps" (road-intersection graphs with labeled junction types and
// road categories) receives localized construction updates round after
// round; IncPartMiner maintains the frequent-substructure catalog
// incrementally while a from-scratch miner re-pays the full cost each round.
//
// Build & run:
//   ./build/examples/dynamic_road_network

#include <cstdio>
#include <string>

#include "common/timing.h"
#include "core/inc_part_miner.h"
#include "core/part_miner.h"
#include "datagen/generator.h"
#include "datagen/update_generator.h"
#include "graph/graph_io.h"
#include "miner/gspan.h"

int main() {
  using namespace partminer;

  // District maps: junction-type vertex labels, road-category edge labels.
  GeneratorParams params;
  params.num_graphs = 250;
  params.avg_edges = 22;
  params.num_labels = 12;   // Junction/road categories.
  params.num_kernels = 15;  // Common street motifs (grids, arterials...).
  params.avg_kernel_edges = 5;
  params.seed = 7;
  GraphDatabase db = GenerateDatabase(params);

  // Construction happens in localized hot zones (Section 4.1's premise).
  AssignUpdateHotspots(&db, 0.15, 8);

  PartMinerOptions options;
  options.min_support_fraction = 0.05;
  PartMiner miner(options);
  const PartMinerResult initial = miner.Mine(db);
  std::printf("initial catalog: %d frequent motifs (%.3fs)\n",
              initial.patterns.size(), initial.merge_seconds);

  GSpanMiner from_scratch;
  MinerOptions scratch_options;
  scratch_options.min_support = initial.min_support_count;

  double inc_total = 0, scratch_total = 0;
  IncPartMiner inc;
  const std::string db_path = "/tmp/partminer_road_network.lg";
  for (int round = 1; round <= 5; ++round) {
    if (round == 4) {
      // Simulate a maintenance-process restart: persist the database, drop
      // the in-memory miner, and re-mine what was read back. The miner
      // state is a function of the database and the support.
      Status status = WriteGraphDatabaseFile(db, db_path);
      GraphDatabase reloaded;
      if (status.ok()) status = ReadGraphDatabaseFile(db_path, &reloaded);
      std::remove(db_path.c_str());
      if (!status.ok()) {
        std::printf("restart failed: %s\n", status.ToString().c_str());
        return 1;
      }
      db = std::move(reloaded);
      AssignUpdateHotspots(&db, 0.15, 8);  // Hot zones are not in the file.
      miner = PartMiner(options);
      miner.Mine(db);
      std::printf("-- database persisted and re-mined (restart) --\n");
    }
    // A handful of districts (~4%) receive construction updates this round.
    UpdateOptions upd;
    upd.fraction_graphs = 0.04;
    upd.updates_per_graph = 2;
    upd.hotspot_locality = 1.0;
    upd.seed = 100 + round;
    const UpdateLog log = ApplyUpdates(&db, params.num_labels, upd);

    Stopwatch inc_watch;
    const IncPartMinerResult r = inc.Update(&miner, db, log);
    const double inc_seconds = inc_watch.ElapsedSeconds();
    inc_total += inc_seconds;

    Stopwatch scratch_watch;
    const PatternSet expected = from_scratch.Mine(db, scratch_options);
    const double scratch_seconds = scratch_watch.ElapsedSeconds();
    scratch_total += scratch_seconds;

    const bool ok =
        expected.SortedCodeStrings() == r.patterns.SortedCodeStrings();
    std::printf(
        "round %d: %2zu districts updated | IncPartMiner %.3fs vs "
        "from-scratch %.3fs | motifs %d (+%d new, -%d gone) %s\n",
        round, log.updated_graphs.size(), inc_seconds, scratch_seconds,
        r.patterns.size(), r.if_.size(), r.fi.size(),
        ok ? "" : "MISMATCH!");
    if (!ok) return 1;
  }
  std::printf("five rounds: incremental %.3fs vs from-scratch %.3fs "
              "(%.1fx saved)\n",
              inc_total, scratch_total, scratch_total / inc_total);
  return 0;
}
