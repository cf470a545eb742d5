#include "bench/bench_common.h"

#include <cstdio>
#include <cstdlib>

#include "obs/metrics.h"

namespace partminer {
namespace bench {

double Flags::GetDouble(const std::string& key, double fallback) const {
  consumed_.insert(key);
  double value = 0;
  // A garbage numeric flag silently benchmarking the default would poison
  // the measurement; refuse to run instead.
  if (!flags::DoubleFlag(values_, key, fallback, &value)) std::exit(2);
  return value;
}

int Flags::GetInt(const std::string& key, int fallback) const {
  consumed_.insert(key);
  int value = 0;
  if (!flags::IntFlag(values_, key, fallback, &value)) std::exit(2);
  return value;
}

std::string Flags::GetString(const std::string& key,
                             const std::string& fallback) const {
  consumed_.insert(key);
  return flags::Get(values_, key, fallback);
}

void Flags::WarnUnconsumed() const {
  for (const auto& [key, value] : values_) {
    if (consumed_.count(key) > 0 || warned_.count(key) > 0) continue;
    warned_.insert(key);
    std::fprintf(stderr, "warning: unrecognized flag --%s (ignored)\n",
                 key.c_str());
  }
}

WorkloadSpec WorkloadSpec::FromFlags(const Flags& flags) {
  WorkloadSpec spec;
  const double scale = flags.GetDouble("scale", 1.0);
  spec.d = flags.GetInt("d", static_cast<int>(spec.d * scale));
  spec.t = flags.GetInt("t", spec.t);
  spec.n = flags.GetInt("n", spec.n);
  spec.l = flags.GetInt("l", std::max(3, static_cast<int>(spec.l * scale)));
  spec.i = flags.GetInt("i", spec.i);
  spec.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  return spec;
}

GeneratorParams WorkloadSpec::ToParams() const {
  GeneratorParams params;
  params.num_graphs = d;
  params.avg_edges = t;
  params.num_labels = n;
  params.num_kernels = l;
  params.avg_kernel_edges = i;
  params.seed = seed;
  return params;
}

GraphDatabase MakeWorkload(const WorkloadSpec& spec) {
  GraphDatabase db = GenerateDatabase(spec.ToParams());
  AssignUpdateHotspots(&db, spec.hotspot_fraction, spec.seed + 1000);
  return db;
}

void PrintRow(const std::string& figure, const std::string& series, double x,
              double y) {
  std::printf("%s,%s,%g,%.4f\n", figure.c_str(), series.c_str(), x, y);
  std::fflush(stdout);
}

void PrintHeader(const std::string& figure, const std::string& description,
                 const std::string& workload_tag) {
  std::printf("# %s: %s\n", figure.c_str(), description.c_str());
  std::printf("# workload: %s (scaled from the paper's setup; see "
              "EXPERIMENTS.md)\n",
              workload_tag.c_str());
  std::printf("figure,series,x,y\n");
  std::fflush(stdout);
}

PoolSizing PoolSizingFromFlags(const Flags& flags, int default_frames) {
  PoolSizing sizing;
  sizing.frames = flags.GetInt("pool-frames", default_frames);
  if (sizing.frames < 1) {
    std::fprintf(stderr, "error: --pool-frames must be at least 1 (got %d)\n",
                 sizing.frames);
    std::exit(2);
  }
  return sizing;
}

void MaybeWriteMetrics(const Flags& flags, const std::string& figure) {
  if (!flags.Has("metrics")) return;
  std::string path = flags.GetString("metrics", "1");
  if (path == "1") path = figure + "_metrics.json";
  if (obs::MetricRegistry::Global().WriteJsonFile(path)) {
    std::fprintf(stderr, "# metrics: %s\n", path.c_str());
  }
}

}  // namespace bench
}  // namespace partminer
