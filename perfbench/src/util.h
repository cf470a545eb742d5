// Shared pieces of the end-to-end benchmark: run configuration, workload
// database, sample statistics, in-memory spans, registry counter deltas and
// the per-run outcome every workload fills in.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "miner/pattern_set.h"

namespace pmbench {

using partminer::GraphDatabase;
using partminer::PatternSet;

/// One benchmark invocation (see main.cc for the flags).
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Toy-sized database and short loops: checks plumbing, not speed.
  bool smoke = false;
  std::string daemon;   // partminerd binary (service_mixed).
  std::string workdir;  // Scratch directory for files the run writes.

  /// Generator tag D<graphs>T20N20L200I5 at 4% support (ROADMAP workload).
  int graphs() const { return smoke ? 150 : 2000; }
  /// The database content (graphs and update hotspots) is one fixed
  /// generator instance; the workload seed permutes its graphs and draws
  /// the operations. A fresh generator draw per seed changes the mining
  /// work itself by more than 1.5x, which would drown every bound.
  static constexpr uint64_t kDatabaseSeed = 1;
  static constexpr int kLabels = 20;
  static constexpr double kSupport = 0.04;
  std::string Tag() const;
  /// Seed for the `i`-th derived stream (rounds, edits, queries).
  uint64_t Derived(uint64_t i) const;
};

/// The workload database: generator tag Config::Tag() with update hotspots
/// on 15% of the vertices (as in the figure harnesses), graphs in a
/// seed-drawn order.
GraphDatabase MakeDatabase(const Config& config);

/// Order-independent digest of a pattern set (service::PatternSetDigest).
uint64_t Digest(const PatternSet& patterns);

/// Oracle: digest of a from-scratch gSpan mine of `db` at 4% support. Works
/// on a private copy so `db`'s lazily built label index stays untouched.
uint64_t GSpanDigest(const GraphDatabase& db, double* seconds = nullptr);

using Clock = std::chrono::steady_clock;
inline double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

/// The measured window of a run: a warm-up of a quarter of the run length
/// (at most 2 s; the first mines of a process run ~40% slow while the
/// allocator and caches settle), then `seconds` of measurement. Call Next()
/// at the start of every operation cycle; tracing starts with the first
/// measured cycle so traces and counters cover measured work only.
class Window {
 public:
  explicit Window(const Config& config);
  /// False once the window is over; otherwise starts a cycle.
  bool Next();
  /// Whether the current cycle counts (false during warm-up).
  bool measured() const { return measured_; }

 private:
  bool trace_;
  double warmup_ms_;
  double end_ms_;
  bool measured_ = false;
  Clock::time_point start_ = Clock::now();
};

/// Timing samples of one operation class.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t n() const { return values_.size(); }
  const std::vector<double>& Values() const { return values_; }
  bool empty() const { return values_.empty(); }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Sum() const;
  double Mean() const { return empty() ? 0 : Sum() / n(); }
  /// Highest of p50/p90/p99/p99.9 with at least ten samples beyond it.
  std::pair<std::string, double> Tail() const;

 private:
  std::vector<double> values_;
};

/// Host-speed reference: a fixed loop of multiplies and cache-missing
/// stores (2M iterations over 4 MB) that takes about kReferenceMs on the
/// reference host at full speed. The host this benchmark was tuned on
/// drifts by up to 1.5x within minutes, and this loop and the program slow
/// down together, so gated times are reported at the reference speed:
/// measured ms * kReferenceMs / (loop ms timed next to it). The program
/// never runs while the loop does, so it cannot bend the ratio.
double ReferenceLoopMs();
constexpr double kReferenceMs = 4.0;

/// A measured time and the same time at the reference host speed.
struct Timed {
  double ms = 0;
  double ref_ms = 0;
};

/// Peak resident set (VmHWM) of process `pid` in MB; 0 when unreadable.
double PeakRssMb(pid_t pid);

/// Accumulates the growth of a fixed list of registry counters across the
/// timed calls: Begin() before a call, End() after it (`keep` false drops
/// the call's growth, e.g. during warm-up).
class CounterDeltas {
 public:
  explicit CounterDeltas(std::vector<const char*> names);
  void Begin();
  void End(bool keep);
  int64_t Total(const char* name) const;

 private:
  std::vector<const char*> names_;
  std::vector<int64_t> start_;
  std::vector<int64_t> total_;
};

/// Benchmark-side spans, kept in memory and written out at the end of a
/// traced run together with the obs::Tracer events of the program.
class SpanLog {
 public:
  static SpanLog& Get();
  /// Starts recording, together with the program's obs::Tracer so both
  /// share (nearly) one time origin.
  void Enable();
  /// Returns an id for End(); -1 when disabled.
  int Begin(const char* name);
  void End(int id);
  /// Chrome trace-event JSON: bench spans as pid 1, program spans as pid 2.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Event {
    const char* name;
    int parent;
    int64_t begin_us;
    int64_t end_us;
  };
  int64_t NowUs() const;

  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Event> events_;
  int open_ = -1;  // Innermost open span (single-threaded use).
};

/// RAII bench span.
class Span {
 public:
  explicit Span(const char* name) : id_(SpanLog::Get().Begin(name)) {}
  ~Span() { SpanLog::Get().End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

/// What one run of a workload measured. main.cc turns it into the result
/// record; workloads only fill it.
struct Outcome {
  /// Gated samples, all at the reference host speed: set-up repetitions
  /// and the workload's two latency classes (see README.md); each is
  /// reported as its median. service_mixed's primary holds one sample, the
  /// p99 query latency.
  Samples setup_s;
  Samples primary_ms;
  Samples secondary_ms;
  /// Every reference loop timed next to an operation.
  Samples reference_loop_ms;
  double peak_rss_mb = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> complaints;  // First few failures, for stderr.

  /// Every named timing of the workload (ms), printed with n and tail, as
  /// measured and at the reference host speed.
  std::map<std::string, Samples> timings;
  std::map<std::string, Samples> ref_timings;
  /// Per-layer values (counts, ratios, ms) by metric name.
  std::map<std::string, double> layer;
  /// Traced runs: mean wall time of one operation and the layer tiles of
  /// that operation (mean ms per operation), in critical-path order.
  double op_wall_ms = 0;
  std::vector<std::pair<std::string, double>> tiles;
  /// Second tile table (service_mixed query requests); may stay empty.
  double query_wall_ms = 0;
  std::vector<std::pair<std::string, double>> query_tiles;

  /// Stamp fields: threads used and offered rates (req/s) where relevant.
  int threads = 1;
  std::map<std::string, double> rates;

  void Fail(const std::string& why);
  Samples& Timing(const std::string& name) { return timings[name]; }
  void AddTiming(const std::string& name, const Timed& t) {
    timings[name].Add(t.ms);
    ref_timings[name].Add(t.ref_ms);
  }
  /// Times `op()` between two reference loops (kept in reference_loop_ms)
  /// and scales it to the reference speed.
  template <typename Op>
  Timed Time(Op&& op) {
    const double before = ReferenceLoopMs();
    const Clock::time_point start = Clock::now();
    op();
    Timed t;
    t.ms = MsSince(start);
    const double after = ReferenceLoopMs();
    reference_loop_ms.Add(before);
    reference_loop_ms.Add(after);
    t.ref_ms = t.ms * kReferenceMs * 2 / (before + after);
    return t;
  }
};

int RunStaticMine(const Config& config, Outcome* out);
int RunUpdateRounds(const Config& config, Outcome* out);
int RunServiceMixed(const Config& config, Outcome* out);
int RunAdiRebuild(const Config& config, Outcome* out);

}  // namespace pmbench

#endif  // PERFBENCH_UTIL_H_
