#ifndef PARTMINER_BENCH_BENCH_COMMON_H_
#define PARTMINER_BENCH_BENCH_COMMON_H_

#include <map>
#include <set>
#include <string>

#include "datagen/generator.h"
#include "graph/graph.h"
#include "storage/buffer_pool.h"

namespace partminer {
namespace bench {

/// Tiny --key=value flag parser shared by the per-figure harnesses.
///
/// Every Get*/Has call marks its key as recognized; keys that were passed on
/// the command line but never consumed are reported by WarnUnconsumed(),
/// which the destructor also runs — so a typo like --suport=0.05 produces a
/// warning instead of silently benchmarking the default.
class Flags {
 public:
  Flags(int argc, char** argv);
  ~Flags() { WarnUnconsumed(); }

  Flags(const Flags&) = delete;
  Flags& operator=(const Flags&) = delete;

  double GetDouble(const std::string& key, double fallback) const;
  int GetInt(const std::string& key, int fallback) const;
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  bool Has(const std::string& key) const {
    consumed_.insert(key);
    return values_.count(key) > 0;
  }

  /// Warns (stderr, once per key) about flags never consumed by any
  /// Get*/Has call. Runs automatically at destruction.
  void WarnUnconsumed() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> consumed_;
  mutable std::set<std::string> warned_;
};

/// Workload scaled down from the paper's dataset tags (see EXPERIMENTS.md).
/// The paper's D50kT20N20L200I5 becomes D(500*scale)T20N20L(50*scale)I5 by
/// default: the kernel count L shrinks with D so that planted kernels remain
/// frequent at the same relative supports the paper sweeps.
struct WorkloadSpec {
  int d = 500;
  int t = 20;
  int n = 20;
  int l = 50;
  int i = 5;
  uint64_t seed = 1;
  double hotspot_fraction = 0.15;

  /// Applies --d/--t/--n/--l/--i/--seed/--scale overrides.
  static WorkloadSpec FromFlags(const Flags& flags);

  GeneratorParams ToParams() const;
  std::string Tag() const { return ToParams().Tag(); }
};

/// Generates the database and assigns update hotspots.
GraphDatabase MakeWorkload(const WorkloadSpec& spec);

/// Emits one CSV data point: `figure,series,x,y` on stdout, plus a
/// flush so piping into tee behaves.
void PrintRow(const std::string& figure, const std::string& series,
              double x, double y);

/// Header printed once per harness: figure id, workload tag, paper
/// reference line.
void PrintHeader(const std::string& figure, const std::string& description,
                 const std::string& workload_tag);

/// Buffer-pool sizing for the disk-backed ADI runs: --pool-frames (default
/// `default_frames`). Refuses to run (exit 2) on garbage or a value below 1,
/// like the numeric Get* accessors.
PoolSizing PoolSizingFromFlags(const Flags& flags, int default_frames);

/// Per-phase metrics export: with --metrics[=path] on the harness command
/// line, dumps the process metrics registry (counters for extensions,
/// isomorphism tests, page I/O, merge work, and the phase-latency
/// histograms) as JSON after the runs. A bare --metrics writes
/// <figure>_metrics.json next to the CSV output.
void MaybeWriteMetrics(const Flags& flags, const std::string& figure);

}  // namespace bench
}  // namespace partminer

#endif  // PARTMINER_BENCH_BENCH_COMMON_H_
