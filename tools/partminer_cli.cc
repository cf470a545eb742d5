// partminer — command-line frequent-subgraph mining over gSpan-format files.
//
//   partminer mine   --input=db.lg --support=0.05 [--k=4] [--algo=partminer|
//                    gspan|gaston|adi] [--criteria=combined|mincut|isolation|
//                    metis] [--threads=N] [--max-edges=N] [--pool-frames=N]
//                    [--closed | --maximal] [--output=patterns.lg]
//                    [--trace=trace.json] [--metrics=metrics.json]
//   partminer gen    --output=db.lg [--d=500 --t=20 --n=20 --l=50 --i=5
//                    --seed=1]
//   partminer stats  --input=db.lg
//
// Patterns are written in gSpan format with a `# support <n>` comment per
// pattern; without --output they go to stdout. --trace writes a Chrome
// trace-event JSON (load in Perfetto); --metrics dumps the process metrics
// registry as JSON after mining.

#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "adi/adi_index.h"
#include "adi/adi_miner.h"
#include "common/flags.h"
#include "common/parse.h"
#include "common/thread_pool.h"
#include "common/timing.h"
#include "core/part_miner.h"
#include "datagen/generator.h"
#include "graph/graph_io.h"
#include "miner/closed.h"
#include "miner/gaston.h"
#include "miner/gspan.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace partminer;

using flags::FlagMap;

/// Strictly-parsed numeric flags: --threads=eight (or =8abc) is a usage
/// error (exit 2) instead of silently becoming a default.
int IntFlag(const FlagMap& flag_map, const std::string& key, int fallback) {
  int value = 0;
  if (!flags::IntFlag(flag_map, key, fallback, &value)) std::exit(2);
  return value;
}

double DoubleFlag(const FlagMap& flag_map, const std::string& key,
                  double fallback) {
  double value = 0;
  if (!flags::DoubleFlag(flag_map, key, fallback, &value)) std::exit(2);
  return value;
}

/// Pages `db` through the disk-backed storage layer and records its paged
/// footprint (storage.db_pages gauge), so a --metrics run reports storage
/// I/O figures even for the memory-based miners: the build writes every
/// page, the read-back sweep replays them through a small buffer pool.
void StorageFootprintProbe(const GraphDatabase& db) {
  PM_TRACE_SPAN("storage_probe", {{"graphs", db.size()}});
  DiskManager disk;
  std::ostringstream path;
  path << "/tmp/partminer_probe_" << ::getpid() << ".pages";
  if (!disk.Open(path.str()).ok()) return;
  // Two frames: the sweep must evict and re-read, so the probe exercises the
  // whole write/evict/read path rather than staying pool-resident.
  BufferPool pool(&disk, 2);
  AdiIndex index(&pool);
  if (!index.Build(db).ok()) return;
  Graph g;
  for (int i = 0; i < index.graph_count(); ++i) {
    if (!index.LoadGraph(i, &g).ok()) return;
  }
  PM_METRIC_GAUGE("storage.db_pages")->Set(index.pages_used());
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  partminer mine  --input=db.lg --support=0.05 [--k=4] "
               "[--algo=partminer|gspan|gaston|adi] [--criteria=combined|"
               "mincut|isolation|metis] [--threads=N] [--max-edges=N] "
               "[--pool-frames=N] [--closed|--maximal] "
               "[--output=out.lg] "
               "[--trace=trace.json] [--metrics=metrics.json]\n"
               "  partminer gen   --output=db.lg [--d --t --n --l --i "
               "--seed]\n"
               "  partminer stats --input=db.lg\n");
  return 2;
}

Status WritePatterns(const PatternSet& patterns, std::ostream& out) {
  // Largest supports first, ties by code for determinism.
  std::vector<const PatternInfo*> ranked;
  for (const PatternInfo& p : patterns.patterns()) ranked.push_back(&p);
  std::sort(ranked.begin(), ranked.end(),
            [](const PatternInfo* a, const PatternInfo* b) {
              if (a->support != b->support) return a->support > b->support;
              return a->code.Compare(b->code) < 0;
            });
  int next_gid = 0;
  for (const PatternInfo* p : ranked) {
    out << "t # " << next_gid++ << "\n";
    out << "# support " << p->support << "\n";
    const Graph g = p->code.ToGraph();
    for (VertexId v = 0; v < g.VertexCount(); ++v) {
      out << "v " << v << " " << g.vertex_label(v) << "\n";
    }
    for (const EdgeEntry& e : g.UndirectedEdges()) {
      out << "e " << e.from << " " << e.to << " " << e.label << "\n";
    }
  }
  if (!out) return Status::IoError("write failed");
  return Status::Ok();
}

int Mine(const FlagMap& flag_map) {
  flags::WarnUnknown(flag_map,
                     {"input", "support", "k", "algo", "criteria", "threads",
                      "max-edges", "pool-frames", "closed", "maximal",
                      "output", "trace", "metrics"});
  GraphDatabase db;
  const std::string input = flags::Get(flag_map, "input", "");
  if (input.empty()) {
    std::fprintf(stderr, "error: mine requires --input=<db.lg>\n");
    return Usage();
  }
  Status status = ReadGraphDatabaseFile(input, &db);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }

  const double support = DoubleFlag(flag_map, "support", 0.05);
  if (support <= 0.0) {
    std::fprintf(stderr, "error: --support must be positive (got %s)\n",
                 flags::Get(flag_map, "support", "0.05").c_str());
    return Usage();
  }
  const int support_count =
      support >= 1.0
          ? static_cast<int>(support)
          : std::max(1, static_cast<int>(std::ceil(support * db.size())));
  const int max_edges = IntFlag(flag_map, "max-edges", 0);
  const std::string algo = flags::Get(flag_map, "algo", "partminer");

  const std::string trace_path = flags::Get(flag_map, "trace", "");
  const std::string metrics_path = flags::Get(flag_map, "metrics", "");
  if (!trace_path.empty()) obs::Tracer::Global().Start();

  // Buffer-pool capacity for --algo=adi.
  PoolSizing pool_sizing;
  pool_sizing.frames = IntFlag(flag_map, "pool-frames", pool_sizing.frames);
  if (pool_sizing.frames < 1) {
    std::fprintf(stderr, "error: --pool-frames must be at least 1 (got %d)\n",
                 pool_sizing.frames);
    return Usage();
  }

  Stopwatch watch;
  PatternSet patterns;
  if (algo == "gspan" || algo == "gaston") {
    MinerOptions options;
    options.min_support = support_count;
    if (max_edges > 0) options.max_edges = max_edges;
    // --threads=N parallelizes the search tree on a work-stealing pool;
    // output is bit-identical to the serial traversal.
    const int threads = IntFlag(flag_map, "threads", 0);
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) {
      pool = std::make_unique<ThreadPool>(threads);
      options.pool = pool.get();
    }
    if (algo == "gspan") {
      GSpanMiner miner;
      patterns = miner.Mine(db, options);
    } else {
      GastonMiner miner;
      patterns = miner.Mine(db, options);
    }
  } else if (algo == "partminer") {
    // The paper's pipeline (partition, unit mining, root merge), so --k,
    // --criteria and --threads keep their meaning.
    PartMinerOptions options;
    options.min_support_count = support_count;
    options.partition.k = std::max(1, IntFlag(flag_map, "k", 2));
    options.unit_mining_threads = IntFlag(flag_map, "threads", 0);
    if (max_edges > 0) options.max_edges = max_edges;
    const std::string criteria = flags::Get(flag_map, "criteria", "combined");
    if (criteria == "mincut") {
      options.partition.criteria = PartitionCriteria::kMinCut;
    } else if (criteria == "isolation") {
      options.partition.criteria = PartitionCriteria::kIsolation;
    } else if (criteria == "metis") {
      options.partition.criteria = PartitionCriteria::kMultilevel;
    } else {
      options.partition.criteria = PartitionCriteria::kCombined;
    }
    patterns = MinePaperPipeline(db, options).patterns;
  } else if (algo == "adi") {
    AdiMineOptions adi_options;
    adi_options.pool = pool_sizing;
    AdiMine miner(adi_options);
    status = miner.BuildIndex(db);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    MinerOptions options;
    options.min_support = support_count;
    if (max_edges > 0) options.max_edges = max_edges;
    status = miner.Mine(options, &patterns);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
  } else {
    std::fprintf(stderr, "error: unknown --algo=%s\n", algo.c_str());
    return Usage();
  }

  if (flag_map.count("closed")) patterns = ClosedPatterns(patterns);
  if (flag_map.count("maximal")) patterns = MaximalPatterns(patterns);

  if (!metrics_path.empty() && algo != "adi") {
    StorageFootprintProbe(db);
  }
  if (!trace_path.empty()) {
    obs::Tracer::Global().Stop();
    if (!obs::Tracer::Global().WriteChromeTraceFile(trace_path)) return 1;
  }
  if (!metrics_path.empty() &&
      !obs::MetricRegistry::Global().WriteJsonFile(metrics_path)) {
    return 1;
  }

  std::fprintf(stderr,
               "%d graphs, min support %d: %d %spatterns in %.3fs (%s)\n",
               db.size(), support_count, patterns.size(),
               flag_map.count("closed")    ? "closed "
               : flag_map.count("maximal") ? "maximal "
                                        : "",
               watch.ElapsedSeconds(), algo.c_str());

  const std::string output = flags::Get(flag_map, "output", "");
  if (output.empty()) {
    status = WritePatterns(patterns, std::cout);
  } else {
    std::ofstream out(output);
    if (!out) {
      std::fprintf(stderr, "error: cannot open %s\n", output.c_str());
      return 1;
    }
    status = WritePatterns(patterns, out);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

int Gen(const FlagMap& flag_map) {
  flags::WarnUnknown(flag_map, {"output", "d", "t", "n", "l", "i", "seed"});
  GeneratorParams params;
  params.num_graphs = IntFlag(flag_map, "d", 500);
  params.avg_edges = IntFlag(flag_map, "t", 20);
  params.num_labels = IntFlag(flag_map, "n", 20);
  params.num_kernels = IntFlag(flag_map, "l", 50);
  params.avg_kernel_edges = IntFlag(flag_map, "i", 5);
  int64_t gen_seed = 1;
  const std::string seed_raw = flags::Get(flag_map, "seed", "1");
  if (!ParseInt64(seed_raw, &gen_seed)) {
    std::fprintf(stderr, "error: --seed=%s is not an integer\n",
                 seed_raw.c_str());
    return Usage();
  }
  params.seed = static_cast<uint64_t>(gen_seed);
  const GraphDatabase db = GenerateDatabase(params);

  const std::string output = flags::Get(flag_map, "output", "");
  const Status status = output.empty()
                            ? WriteGraphDatabase(db, std::cout)
                            : WriteGraphDatabaseFile(db, output);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s: %d graphs, %lld edges\n",
               params.Tag().c_str(), db.size(),
               static_cast<long long>(db.TotalEdges()));
  return 0;
}

int Stats(const FlagMap& flag_map) {
  flags::WarnUnknown(flag_map, {"input"});
  const std::string input = flags::Get(flag_map, "input", "");
  if (input.empty()) {
    std::fprintf(stderr, "error: stats requires --input=<db.lg>\n");
    return Usage();
  }
  GraphDatabase db;
  const Status status = ReadGraphDatabaseFile(input, &db);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  int64_t vertices = 0;
  int max_edges = 0;
  int min_vertices = INT_MAX;
  int max_vertices = 0;
  std::map<Label, int> vertex_labels;
  std::map<Label, int> edge_labels;
  for (int i = 0; i < db.size(); ++i) {
    const Graph& g = db.graph(i);
    vertices += g.VertexCount();
    max_edges = std::max(max_edges, g.EdgeCount());
    min_vertices = std::min(min_vertices, g.VertexCount());
    max_vertices = std::max(max_vertices, g.VertexCount());
    for (VertexId v = 0; v < g.VertexCount(); ++v) {
      ++vertex_labels[g.vertex_label(v)];
    }
    for (const EdgeEntry& e : g.UndirectedEdges()) ++edge_labels[e.label];
  }
  if (db.size() == 0) min_vertices = 0;
  std::printf("graphs:          %d\n", db.size());
  std::printf("vertices:        %lld (avg %.1f, min %d, max %d)\n",
              static_cast<long long>(vertices),
              db.size() ? static_cast<double>(vertices) / db.size() : 0.0,
              min_vertices, max_vertices);
  std::printf("edges:           %lld (avg %.1f, max %d)\n",
              static_cast<long long>(db.TotalEdges()),
              db.size() ? static_cast<double>(db.TotalEdges()) / db.size()
                        : 0.0,
              max_edges);
  std::printf("avg degree:      %.2f\n",
              vertices ? 2.0 * db.TotalEdges() / vertices : 0.0);
  std::printf("vertex labels:   %zu distinct\n", vertex_labels.size());
  std::printf("edge labels:     %zu distinct\n", edge_labels.size());
  // Most frequent vertex labels: skew here drives both the partitioning
  // quality and the miners' 1-edge seed counts, so surface it.
  std::vector<std::pair<int, Label>> ranked;
  for (const auto& [label, count] : vertex_labels) {
    ranked.emplace_back(count, label);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  const size_t top = std::min<size_t>(5, ranked.size());
  for (size_t i = 0; i < top; ++i) {
    std::printf("  label %-4d %d vertices (%.1f%%)\n", ranked[i].second,
                ranked[i].first,
                vertices ? 100.0 * ranked[i].first / vertices : 0.0);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  // The subcommand is argv[1]; its flags follow.
  const FlagMap flag_map = flags::Parse(argc - 1, argv + 1);
  if (command == "mine") return Mine(flag_map);
  if (command == "gen") return Gen(flag_map);
  if (command == "stats") return Stats(flag_map);
  return Usage();
}
