// pm_bench — one end-to-end benchmark run of one workload.
//
//   pm_bench --workload=static_mine|update_rounds|service_mixed|adi_rebuild
//            --seed=N --seconds=S --trace=0|1 --workdir=DIR
//            [--daemon=path/to/partminerd] [--smoke]
//
// Prints a human-readable report on stderr and the full result record as
// one JSON line on stdout. perfbench/run.py builds this binary, runs it and
// reduces the record to the one-line result; see README.md.
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/parse.h"
#include "service/json.h"
#include "util.h"

namespace pmbench {
namespace {

using partminer::service::Json;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Per-layer metrics of a traced run, in BENCHMARK.json order. Tile shares
/// are a tile's mean ms per operation over the operation's mean wall time;
/// a workload that never enters a layer reports 0 for it.
const MetricDef kLayerMetrics[] = {
    {"op_wall_ms", "ms"},
    {"unaccounted_ms", "ms"},
    {"miner.gspan_ref_ms", "ms"},
    {"partition.create_share", "frac"},
    {"partition.route_share", "frac"},
    {"miner.unit_mine_share", "frac"},
    {"miner.unit_mine_max_share", "frac"},
    {"core.merge_interior_share", "frac"},
    {"core.merge_root_share", "frac"},
    {"core.inc_leaf_share", "frac"},
    {"core.inc_root_merge_share", "frac"},
    {"core.verify_share", "frac"},
    {"adi.build_share", "frac"},
    {"adi.scan_share", "frac"},
    {"adi.search_share", "frac"},
    {"service.generator_late_share", "frac"},
    {"service.queue_wait_share", "frac"},
    {"service.phase_b_share", "frac"},
    {"service.phase_a_other_share", "frac"},
    {"service.verb_query_share", "frac"},
    {"service.reply_write_share", "frac"},
    {"service.batch_apply_share", "frac"},
    {"graph.canon_cache_hit_ratio", "ratio"},
    {"core.merge_useful_ratio", "ratio"},
    {"common.parallel_speedup", "ratio"},
    {"storage.pool_hit_ratio", "ratio"},
    {"partition.cut_edges", "count"},
    {"partition.remined_units", "count"},
    {"miner.embeddings_projected", "count"},
    {"miner.extension_groups", "count"},
    {"graph.iso_subgraph_tests", "count"},
    {"core.merge_candidates_counted", "count"},
    {"core.merge_candidates_skipped_known", "count"},
    {"core.merge_delta_recounts", "count"},
    {"core.verify_graphs_examined", "count"},
    {"core.state_bytes", "bytes"},
    {"core.frontier_entries", "count"},
    {"common.pool_tasks_executed", "count"},
    {"common.pool_steals", "count"},
    {"storage.page_reads", "count"},
    {"storage.page_writes", "count"},
    {"storage.evictions", "count"},
    {"service.edits_per_batch", "count"},
};

Json Value(double value, const char* unit) {
  Json metric = Json::Object();
  metric.Set("value", Json::Number(value));
  metric.Set("unit", Json::Str(unit));
  return metric;
}

double TileSum(const std::vector<std::pair<std::string, double>>& tiles) {
  double total = 0;
  for (const auto& tile : tiles) total += tile.second;
  return total;
}

void PrintTiles(const char* title, double wall,
                const std::vector<std::pair<std::string, double>>& tiles) {
  std::fprintf(stderr, "  %s\n    %-28s %10s %8s\n", title, "tile", "ms/op",
               "share");
  for (const auto& [name, ms] : tiles) {
    std::fprintf(stderr, "    %-28s %10.3f %7.1f%%\n", name.c_str(), ms,
                 wall > 0 ? 100 * ms / wall : 0);
  }
  const double rest = wall - TileSum(tiles);
  std::fprintf(stderr, "    %-28s %10.3f %7.1f%%\n    %-28s %10.3f %7.1f%%\n",
               "unaccounted", rest, wall > 0 ? 100 * rest / wall : 0,
               "operation wall", wall, 100.0);
}

Json BuildRecord(const Config& config, int status, const Outcome& o) {
  Json record = Json::Object();
  record.Set("schema", Json::Str("partminer-perfbench/1"));
  record.Set("workload", Json::Str(config.workload));
  record.Set("seed", Json::Number(static_cast<int64_t>(config.seed)));
  record.Set("seconds", Json::Number(config.seconds));
  record.Set("trace", Json::Number(static_cast<int64_t>(config.trace)));
  record.Set("smoke", Json::Bool(config.smoke));

  Json stamp = Json::Object();
  stamp.Set("cores", Json::Number(static_cast<int64_t>(
                         std::thread::hardware_concurrency())));
  stamp.Set("threads", Json::Number(static_cast<int64_t>(o.threads)));
  stamp.Set("build_type", Json::Str(PM_BENCH_BUILD_TYPE));
  stamp.Set("generator", Json::Str(config.Tag()));
  stamp.Set("support", Json::Number(Config::kSupport));
  stamp.Set("reference_loop_p50_ms",
            Json::Number(o.reference_loop_ms.Median()));
  stamp.Set("reference_ms", Json::Number(kReferenceMs));
  Json rates = Json::Object();
  for (const auto& [name, rate] : o.rates) rates.Set(name, Json::Number(rate));
  stamp.Set("rates", std::move(rates));
  record.Set("stamp", std::move(stamp));

  const int64_t attempted = std::max<int64_t>(o.attempted, 1);
  const int64_t failed = o.attempted == 0 ? 1 : o.failed;
  record.Set("correct", Json::Bool(status == 0 && failed == 0));
  record.Set("attempted", Json::Number(attempted));
  record.Set("failed", Json::Number(failed));

  Json metrics = Json::Object();
  metrics.Set("setup_s", Value(o.setup_s.Median(), "s"));
  // Gated times are medians at the reference host speed (util.h).
  metrics.Set("primary_ms", Value(o.primary_ms.Median(), "ms"));
  metrics.Set("secondary_ms", Value(o.secondary_ms.Median(), "ms"));
  metrics.Set("peak_rss_mb", Value(o.peak_rss_mb, "MB"));
  metrics.Set("ok_frac",
              Value(static_cast<double>(attempted - failed) / attempted,
                    "ratio"));
  record.Set("metrics", std::move(metrics));

  Json timings = Json::Object();
  for (const auto& [name, samples] : o.timings) {
    const auto [tail_label, tail_value] = samples.Tail();
    Json t = Json::Object();
    const Samples& ref = o.ref_timings.count(name) ? o.ref_timings.at(name)
                                                   : samples;
    t.Set("n", Json::Number(static_cast<int64_t>(samples.n())));
    t.Set("p50_ms", Json::Number(samples.Median()));
    t.Set("tail", Json::Str(tail_label));
    t.Set("tail_ms", Json::Number(tail_value));
    t.Set("ref_p50_ms", Json::Number(ref.Median()));
    t.Set("ref_tail_ms", Json::Number(ref.Tail().second));
    timings.Set(name, std::move(t));
  }
  record.Set("timings", std::move(timings));

  Json detail = Json::Object();
  for (const auto& [name, value] : o.layer) detail.Set(name, Json::Number(value));
  for (const auto& [name, ms] : o.tiles) detail.Set(name + "_ms", Json::Number(ms));
  for (const auto& [name, ms] : o.query_tiles) {
    detail.Set(name + "_query_ms", Json::Number(ms));
  }
  record.Set("layer_detail", std::move(detail));

  if (config.trace) {
    std::map<std::string, double> values = o.layer;
    values["op_wall_ms"] = o.op_wall_ms;
    values["unaccounted_ms"] = o.op_wall_ms - TileSum(o.tiles);
    const auto gspan = o.timings.find("miner.gspan_ref");
    if (gspan != o.timings.end()) {
      values["miner.gspan_ref_ms"] = gspan->second.Median();
    }
    for (const auto& [name, ms] : o.tiles) {
      values[name + "_share"] = o.op_wall_ms > 0 ? ms / o.op_wall_ms : 0;
    }
    for (const auto& [name, ms] : o.query_tiles) {
      if (name == "service.generator_late") continue;
      values[name + "_share"] = o.query_wall_ms > 0 ? ms / o.query_wall_ms : 0;
    }
    Json layer = Json::Object();
    for (const MetricDef& def : kLayerMetrics) {
      const auto it = values.find(def.name);
      layer.Set(def.name, Value(it == values.end() ? 0 : it->second, def.unit));
    }
    record.Set("layer_metrics", std::move(layer));
  }
  return record;
}

void PrintReport(const Config& config, const Json& record, const Outcome& o) {
  std::fprintf(stderr, "== %s  seed %llu  %s at 4%% support  (%.0f s, %s)\n",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed),
               config.Tag().c_str(), config.seconds,
               config.trace ? "traced" : "untraced");
  std::fprintf(stderr,
               "  attempted %lld, failed %lld; reference loop p50 %.3f ms "
               "(%.0f%% of reference speed)\n",
               static_cast<long long>(o.attempted),
               static_cast<long long>(o.failed),
               o.reference_loop_ms.Median(),
               o.reference_loop_ms.empty()
                   ? 0
                   : 100 * kReferenceMs / o.reference_loop_ms.Median());
  for (const std::string& c : o.complaints) {
    std::fprintf(stderr, "  FAILED: %s\n", c.c_str());
  }
  std::fprintf(stderr, "  end-to-end\n");
  for (const auto& [name, metric] : record.Get("metrics")->fields()) {
    std::fprintf(stderr, "    %-22s %12.4f %s\n", name.c_str(),
                 metric.Get("value")->AsDouble(),
                 metric.Get("unit")->AsString().c_str());
  }
  std::fprintf(stderr, "  timings (ms)\n");
  for (const auto& [name, samples] : o.timings) {
    const auto [tail_label, tail_value] = samples.Tail();
    const Samples& ref = o.ref_timings.count(name) ? o.ref_timings.at(name)
                                                   : samples;
    std::fprintf(stderr,
                 "    %-24s n=%-6zu p50 %10.3f  %-5s %10.3f   at reference "
                 "speed: p50 %10.3f\n",
                 name.c_str(), samples.n(), samples.Median(),
                 tail_label.c_str(), tail_value, ref.Median());
  }
  if (!config.trace) return;
  PrintTiles(config.workload == "service_mixed" ? "tiles of one update request"
                                                : "tiles of one operation",
             o.op_wall_ms, o.tiles);
  if (!o.query_tiles.empty()) {
    PrintTiles("tiles of one query request", o.query_wall_ms, o.query_tiles);
  }
  std::fprintf(stderr, "  per-layer\n");
  for (const auto& [name, metric] : record.Get("layer_metrics")->fields()) {
    std::fprintf(stderr, "    %-36s %14.4f %s\n", name.c_str(),
                 metric.Get("value")->AsDouble(),
                 metric.Get("unit")->AsString().c_str());
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: pm_bench --workload=static_mine|update_rounds|"
               "service_mixed|adi_rebuild --seed=N --seconds=S --trace=0|1 "
               "--workdir=DIR [--daemon=PATH] [--smoke]\n");
  return 2;
}

int Main(int argc, char** argv) {
  namespace flags = partminer::flags;
  const flags::FlagMap flag_map = flags::Parse(argc, argv);
  flags::WarnUnknown(flag_map, {"workload", "seed", "seconds", "trace",
                                "workdir", "daemon", "smoke"});
  Config config;
  config.workload = flags::Get(flag_map, "workload", "");
  config.workdir = flags::Get(flag_map, "workdir", "");
  config.daemon = flags::Get(flag_map, "daemon", "");
  config.smoke = flag_map.count("smoke") > 0;
  int trace = 0;
  if (!partminer::ParseUint64(flags::Get(flag_map, "seed", "1"),
                              &config.seed) ||
      !flags::DoubleFlag(flag_map, "seconds", 10, &config.seconds) ||
      !flags::IntFlag(flag_map, "trace", 0, &trace) || config.seconds <= 0 ||
      config.workdir.empty() || (trace != 0 && trace != 1)) {
    return Usage();
  }
  config.trace = trace == 1;

  Outcome outcome;
  int status = 0;
  if (config.workload == "static_mine") {
    status = RunStaticMine(config, &outcome);
  } else if (config.workload == "update_rounds") {
    status = RunUpdateRounds(config, &outcome);
  } else if (config.workload == "service_mixed") {
    status = RunServiceMixed(config, &outcome);
  } else if (config.workload == "adi_rebuild") {
    status = RunAdiRebuild(config, &outcome);
  } else {
    return Usage();
  }
  if (status != 0) return status;

  if (config.trace) {
    const std::string path =
        config.workdir + "/" + config.workload + ".trace.json";
    if (!SpanLog::Get().WriteChromeTrace(path)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  const Json record = BuildRecord(config, status, outcome);
  PrintReport(config, record, outcome);
  std::printf("%s\n", record.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace pmbench

int main(int argc, char** argv) { return pmbench::Main(argc, argv); }
