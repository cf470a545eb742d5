#include "util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "datagen/generator.h"
#include "miner/gspan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/session.h"

namespace pmbench {

std::string Config::Tag() const {
  char tag[32];
  std::snprintf(tag, sizeof(tag), "D%dT20N20L200I5", graphs());
  return tag;
}

uint64_t Config::Derived(uint64_t i) const {
  // splitmix64 over (seed, i): independent streams per round/op/reader.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (i + 1) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

GraphDatabase MakeDatabase(const Config& config) {
  partminer::GeneratorParams params;
  params.num_graphs = config.graphs();
  params.num_labels = Config::kLabels;
  params.avg_edges = 20;
  params.avg_kernel_edges = 5;
  params.num_kernels = 200;
  params.seed = Config::kDatabaseSeed;
  GraphDatabase generated = partminer::GenerateDatabase(params);
  partminer::AssignUpdateHotspots(&generated, 0.15, params.seed + 1000);

  // The workload seed only permutes the graphs; the operations draw from it
  // too (see Config::Derived).
  std::vector<int> order(generated.size());
  for (int i = 0; i < generated.size(); ++i) order[i] = i;
  uint64_t state = config.Derived(1000);
  for (size_t i = order.size(); i > 1; --i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(order[i - 1], order[(state >> 33) % i]);
  }
  GraphDatabase db;
  for (const int i : order) db.Add(generated.graph(i));
  return db;
}

uint64_t Digest(const PatternSet& patterns) {
  return partminer::service::PatternSetDigest(patterns);
}

uint64_t GSpanDigest(const GraphDatabase& db, double* seconds) {
  const GraphDatabase copy = db;
  partminer::MinerOptions options;
  options.min_support = std::max(
      1, static_cast<int>(std::ceil(Config::kSupport * copy.size())));
  partminer::GSpanMiner miner;
  const Clock::time_point start = Clock::now();
  const PatternSet patterns = miner.Mine(copy, options);
  if (seconds != nullptr) *seconds = MsSince(start) / 1e3;
  return Digest(patterns);
}

Window::Window(const Config& config)
    : trace_(config.trace),
      warmup_ms_(std::min(2.0, config.seconds / 4) * 1e3),
      end_ms_(warmup_ms_ + config.seconds * 1e3) {}

bool Window::Next() {
  const double elapsed = MsSince(start_);
  if (elapsed >= end_ms_) return false;
  if (!measured_ && elapsed >= warmup_ms_) {
    measured_ = true;
    if (trace_) SpanLog::Get().Enable();
  }
  return true;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo);
}

double Samples::Sum() const {
  double total = 0;
  for (const double v : values_) total += v;
  return total;
}

std::pair<std::string, double> Samples::Tail() const {
  static const std::pair<const char*, double> kLadder[] = {
      {"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.90}};
  const double n = static_cast<double>(values_.size());
  for (const auto& [label, q] : kLadder) {
    if (std::floor(n * (1 - q) + 1e-9) >= 10) return {label, Quantile(q)};
  }
  return {"p50", Quantile(0.5)};
}

double ReferenceLoopMs() {
  static std::vector<uint32_t> buffer(1 << 20);
  static uint64_t x = 1;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < 2000000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    buffer[(x >> 40) & (buffer.size() - 1)] += static_cast<uint32_t>(x);
  }
  return MsSince(start);
}

double PeakRssMb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

namespace {

int64_t CounterValue(const char* name) {
  return partminer::obs::MetricRegistry::Global().GetCounter(name)->value();
}

}  // namespace

CounterDeltas::CounterDeltas(std::vector<const char*> names)
    : names_(std::move(names)),
      start_(names_.size(), 0),
      total_(names_.size(), 0) {}

void CounterDeltas::Begin() {
  for (size_t i = 0; i < names_.size(); ++i) start_[i] = CounterValue(names_[i]);
}

void CounterDeltas::End(bool keep) {
  if (!keep) return;
  for (size_t i = 0; i < names_.size(); ++i) {
    total_[i] += CounterValue(names_[i]) - start_[i];
  }
}

int64_t CounterDeltas::Total(const char* name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (std::string(names_[i]) == name) return total_[i];
  }
  return 0;
}

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

void SpanLog::Enable() {
  enabled_ = true;
  events_.clear();
  open_ = -1;
  partminer::obs::Tracer::Global().Start();
  epoch_ = Clock::now();
}

int64_t SpanLog::NowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch_)
      .count();
}

int SpanLog::Begin(const char* name) {
  if (!enabled_) return -1;
  events_.push_back({name, open_, NowUs(), -1});
  open_ = static_cast<int>(events_.size()) - 1;
  return open_;
}

void SpanLog::End(int id) {
  if (id < 0) return;
  events_[id].end_us = NowUs();
  open_ = events_[id].parent;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Event& e : events_) {
    if (e.end_us < 0) continue;
    out << (first ? "" : ",") << "{\"name\":\"" << e.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << e.begin_us
        << ",\"dur\":" << (e.end_us - e.begin_us) << "}";
    first = false;
  }
  for (const partminer::obs::TraceEvent& e :
       partminer::obs::Tracer::Global().Snapshot()) {
    out << (first ? "" : ",") << "{\"name\":\"" << e.name
        << "\",\"ph\":\"X\",\"pid\":2,\"tid\":" << e.tid
        << ",\"ts\":" << e.ts_us << ",\"dur\":" << e.dur_us << "}";
    first = false;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void Outcome::Fail(const std::string& why) {
  ++failed;
  if (complaints.size() < 8) complaints.push_back(why);
}

}  // namespace pmbench
