// update_rounds: one IncPartMiner::Update at k=2 per operation, cycling
// 2%, 10% and 40% of graphs updated, each round from a copy of the base
// state mined during set-up.
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <sstream>

#include "core/inc_part_miner.h"
#include "core/part_miner.h"
#include "core/state_io.h"
#include "datagen/update_generator.h"
#include "util.h"

namespace pmbench {

using namespace partminer;

int RunUpdateRounds(const Config& config, Outcome* out) {
  const GraphDatabase base = MakeDatabase(config);
  PartMinerOptions options;
  options.min_support_fraction = Config::kSupport;
  options.partition.k = 2;

  // Set-up is the base Mine the maintainer starts from.
  std::unique_ptr<PartMiner> base_state;
  for (int i = 0; i < 5; ++i) {
    auto miner = std::make_unique<PartMiner>(options);
    const Timed t = out->Time([&] { miner->Mine(base); });
    out->setup_s.Add(t.ref_ms / 1e3);
    out->AddTiming("setup", t);
    base_state = std::move(miner);
  }

  if (config.trace) {
    double gspan_seconds = 0;
    Samples& ref = out->Timing("miner.gspan_ref");
    for (int i = 0; i < 3; ++i) {
      GSpanDigest(base, &gspan_seconds);
      ref.Add(gspan_seconds * 1e3);
    }
    std::ostringstream state;
    if (SaveMinerState(*base_state, state).ok()) {
      out->layer["core.state_bytes"] = static_cast<double>(state.str().size());
    }
    double entries = 0;
    for (const NodeFrontier& f : base_state->node_frontiers()) {
      entries += static_cast<double>(f.map.size());
    }
    out->layer["core.frontier_entries"] = entries;
  }

  static const double kFractions[] = {0.02, 0.10, 0.40};
  static const char* const kClasses[] = {"round_2pct", "round_10pct",
                                         "round_40pct"};
  CounterDeltas counters({"iso.subgraph_tests"});
  double route_ms = 0, leaf_ms = 0, root_ms = 0, verify_ms = 0;
  double remined = 0, counted = 0, skipped = 0, recounts = 0;
  double verify_graphs = 0, patterns = 0;
  Samples wall;
  int64_t round = 0;
  for (Window window(config); window.Next();) {
    double delta_cycle_ms = 0;
    for (int cls = 0; cls < 3; ++cls, ++round) {
      GraphDatabase db = base;
      PartMiner state = *base_state;
      UpdateOptions update;
      update.fraction_graphs = kFractions[cls];
      update.hotspot_locality = 1.0;  // Fig. 17's locality.
      update.seed = config.Derived(static_cast<uint64_t>(round));
      const UpdateLog log = ApplyUpdates(&db, Config::kLabels, update);

      IncPartMiner inc;
      counters.Begin();
      IncPartMinerResult result;
      const Timed t = out->Time([&] {
        Span span(kClasses[cls]);
        result = inc.Update(&state, db, log);
      });
      counters.End(window.measured());
      ++out->attempted;
      {
        Span span("oracle");
        if (Digest(result.patterns) != GSpanDigest(db)) {
          out->Fail("round " + std::to_string(round) + " (" + kClasses[cls] +
                    "): digest differs from a from-scratch gSpan mine");
        }
      }
      if (!window.measured()) continue;
      wall.Add(t.ms);
      out->AddTiming(kClasses[cls], t);
      if (cls < 2) {
        delta_cycle_ms += t.ref_ms;
      } else {
        out->primary_ms.Add(delta_cycle_ms);
        out->secondary_ms.Add(t.ref_ms);
      }
      route_ms += result.route_seconds * 1e3;
      leaf_ms += result.UnitSecondsSum() * 1e3;
      root_ms += result.merge_seconds * 1e3;
      verify_ms += result.verify_seconds * 1e3;
      remined += result.remined_units.Count();
      counted += result.merge_stats.candidates_counted;
      skipped += result.merge_stats.candidates_skipped_known;
      recounts += result.merge_stats.delta_recounts;
      verify_graphs += result.verify_stats.graphs_examined;
      patterns += result.patterns.size();
    }
  }
  out->peak_rss_mb = PeakRssMb(::getpid());
  if (!config.trace) return 0;

  const double ops = static_cast<double>(wall.n());
  out->op_wall_ms = wall.Mean();
  out->tiles = {{"partition.route", route_ms / ops},
                {"core.inc_leaf", leaf_ms / ops},
                {"core.inc_root_merge", root_ms / ops},
                {"core.verify", verify_ms / ops}};
  std::map<std::string, double>& layer = out->layer;
  layer["partition.remined_units"] = remined / ops;
  layer["core.merge_candidates_counted"] = counted / ops;
  layer["core.merge_candidates_skipped_known"] = skipped / ops;
  layer["core.merge_delta_recounts"] = recounts / ops;
  layer["core.merge_useful_ratio"] = counted > 0 ? patterns / counted : 0;
  layer["core.verify_graphs_examined"] = verify_graphs / ops;
  layer["graph.iso_subgraph_tests"] = counters.Total("iso.subgraph_tests") / ops;
  return 0;
}

}  // namespace pmbench
