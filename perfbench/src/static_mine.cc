// static_mine: PartMiner::Mine at k=4 on a freshly loaded database,
// alternating serial and 4-thread unit mining.
#include <unistd.h>

#include <cstdio>
#include <string_view>

#include "core/part_miner.h"
#include "graph/canonical.h"
#include "graph/graph_io.h"
#include "obs/trace.h"
#include "util.h"

namespace pmbench {

using namespace partminer;

int RunStaticMine(const Config& config, Outcome* out) {
  const std::string path = config.workdir + "/static_mine.db.lg";
  {
    const Status written = WriteGraphDatabaseFile(MakeDatabase(config), path);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
  }

  // Set-up is loading the database, as `partminer mine` starts; repeated
  // for at least a second so the median spans the host's speed swings.
  GraphDatabase base;
  const Clock::time_point setup_start = Clock::now();
  for (int i = 0; i < 9 || MsSince(setup_start) < 1000; ++i) {
    GraphDatabase loaded;
    Status read;
    const Timed t = out->Time([&] { read = ReadGraphDatabaseFile(path, &loaded); });
    out->setup_s.Add(t.ref_ms / 1e3);
    out->AddTiming("setup", t);
    if (!read.ok()) {
      std::fprintf(stderr, "error: %s\n", read.ToString().c_str());
      return 1;
    }
    base = std::move(loaded);
  }

  // Oracle: every mine below must reproduce gSpan's pattern set.
  double gspan_seconds = 0;
  const uint64_t expected = GSpanDigest(base, &gspan_seconds);
  if (config.trace) {
    Samples& ref = out->Timing("miner.gspan_ref");
    ref.Add(gspan_seconds * 1e3);
    for (int i = 0; i < 2; ++i) {
      GSpanDigest(base, &gspan_seconds);
      ref.Add(gspan_seconds * 1e3);
    }
  }

  CounterDeltas counters({"miner.embeddings_projected",
                          "miner.root_extension_embeddings",
                          "miner.rightmost_extension_embeddings",
                          "miner.rightmost_extension_groups",
                          "miner.root_extension_groups", "canon.cache_hits",
                          "canon.cache_misses", "iso.subgraph_tests",
                          "pool.tasks_executed", "pool.steals"});
  double partition_ms = 0, unit_sum_ms = 0, unit_max_ms = 0, verify_ms = 0;
  double cut_edges = 0, candidates_counted = 0, root_patterns = 0;
  double verify_graphs = 0;
  Samples wall;
  int64_t mines = 0;
  for (Window window(config); window.Next();) {
    for (const bool parallel : {false, true}) {
      // Each mine starts as a fresh `partminer mine` would: a new copy of
      // the database (no label index) and an empty minimality memo.
      const GraphDatabase db = base;
      ClearMinimalityCache();
      PartMinerOptions options;
      options.min_support_fraction = Config::kSupport;
      options.partition.k = 4;
      options.unit_mining_threads = parallel ? 4 : 0;
      PartMiner miner(options);

      counters.Begin();
      PartMinerResult result;
      const Timed t = out->Time([&] {
        Span span(parallel ? "mine_t4" : "mine");
        result = miner.Mine(db);
      });
      counters.End(window.measured());
      ++out->attempted;
      {
        Span span("oracle");
        if (Digest(result.patterns) != expected) {
          out->Fail("mine " + std::to_string(mines) +
                    ": digest differs from gSpan");
        }
      }
      ++mines;
      if (!window.measured()) continue;
      wall.Add(t.ms);
      (parallel ? out->secondary_ms : out->primary_ms).Add(t.ref_ms);
      out->AddTiming(parallel ? "mine_t4" : "mine", t);
      partition_ms += result.partition_seconds * 1e3;
      unit_sum_ms += result.UnitSecondsSum() * 1e3;
      unit_max_ms += result.UnitSecondsMax() * 1e3;
      verify_ms += result.verify_seconds * 1e3;
      candidates_counted += result.merge_stats.candidates_counted;
      root_patterns += result.patterns.size();
      verify_graphs += result.verify_stats.graphs_examined;
      if (config.trace) cut_edges += miner.partitioned().TotalCutEdges(db);
    }
  }
  out->threads = 4;
  out->peak_rss_mb = PeakRssMb(::getpid());
  if (!config.trace) return 0;

  // Interior vs root merge and the unit-mining phase come from the
  // program's own spans (merge_node carries its tree depth).
  double interior_ms = 0, root_ms = 0, unit_phase_ms = 0;
  for (const obs::TraceEvent& e : obs::Tracer::Global().Snapshot()) {
    const std::string_view name = e.name;
    if (name == "unit_mining") unit_phase_ms += e.dur_us / 1e3;
    if (name != "merge_node") continue;
    int64_t depth = 0;
    for (const obs::TraceArg& arg : e.args) {
      if (std::string_view(arg.key) == "depth") depth = arg.number;
    }
    (depth == 0 ? root_ms : interior_ms) += e.dur_us / 1e3;
  }
  const double ops = static_cast<double>(wall.n());
  out->op_wall_ms = wall.Mean();
  out->tiles = {{"partition.create", partition_ms / ops},
                {"miner.unit_mine", unit_phase_ms / ops},
                {"core.merge_interior", interior_ms / ops},
                {"core.merge_root", root_ms / ops},
                {"core.verify", verify_ms / ops}};
  std::map<std::string, double>& layer = out->layer;
  layer["miner.unit_mine_ms_sum"] = unit_sum_ms / ops;
  layer["miner.unit_mine_ms_max"] = unit_max_ms / ops;
  layer["miner.unit_mine_max_share"] = unit_max_ms / ops / wall.Mean();
  layer["partition.cut_edges"] = cut_edges / ops;
  // Every embedding the miners materialize: root and rightmost-extension
  // projections plus from-scratch code projections.
  layer["miner.embeddings_projected"] =
      (counters.Total("miner.embeddings_projected") +
       counters.Total("miner.root_extension_embeddings") +
       counters.Total("miner.rightmost_extension_embeddings")) /
      ops;
  layer["miner.extension_groups"] =
      (counters.Total("miner.rightmost_extension_groups") +
       counters.Total("miner.root_extension_groups")) /
      ops;
  const double hits = counters.Total("canon.cache_hits");
  const double misses = counters.Total("canon.cache_misses");
  layer["graph.canon_cache_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0;
  layer["graph.iso_subgraph_tests"] = counters.Total("iso.subgraph_tests") / ops;
  layer["core.merge_candidates_counted"] = candidates_counted / ops;
  layer["core.merge_useful_ratio"] =
      candidates_counted > 0 ? root_patterns / candidates_counted : 0;
  layer["core.verify_graphs_examined"] = verify_graphs / ops;
  layer["common.pool_tasks_executed"] =
      counters.Total("pool.tasks_executed") / ops;
  layer["common.pool_steals"] = counters.Total("pool.steals") / ops;
  layer["common.parallel_speedup"] =
      out->secondary_ms.Median() > 0
          ? out->primary_ms.Median() / out->secondary_ms.Median()
          : 0;
  return 0;
}

}  // namespace pmbench
