// Tests for the observability layer: metric registry semantics, concurrent
// mutation, trace-event export well-formedness, and an end-to-end check that
// PartMiner's span hierarchy is self-consistent under concurrent unit mining.

#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/part_miner.h"
#include "datagen/generator.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace partminer {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricRegistry;
using obs::TraceEvent;
using obs::Tracer;

// --- Minimal JSON well-formedness checker (objects, arrays, strings,
// numbers, literals). Good enough to catch escaping and comma bugs in the
// exporters without a JSON dependency.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (Peek() != ':') return false;
      ++pos_;
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // Unescaped.
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(text_[pos_])) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(text_[pos_]) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const std::string& lit) {
    if (text_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(text_[pos_])) ++pos_;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

TEST(MetricRegistryTest, CounterAndGaugeSemantics) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  EXPECT_EQ(c->value(), 0);
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->value(), 42);
  // Same name, same handle.
  EXPECT_EQ(registry.GetCounter("test.counter"), c);

  Gauge* g = registry.GetGauge("test.gauge");
  g->Set(7);
  g->Add(-2);
  EXPECT_EQ(g->value(), 5);

  registry.ResetAll();
  EXPECT_EQ(c->value(), 0);  // Handle survives the reset.
  EXPECT_EQ(g->value(), 0);
}

TEST(MetricRegistryTest, HistogramBucketSemantics) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("test.hist", {1.0, 10.0, 100.0});
  h->Observe(0.5);    // <= 1
  h->Observe(1.0);    // <= 1 (boundary goes to its bucket)
  h->Observe(5.0);    // <= 10
  h->Observe(99.0);   // <= 100
  h->Observe(1e6);    // Overflow.
  EXPECT_EQ(h->count(), 5);
  EXPECT_NEAR(h->sum(), 0.5 + 1.0 + 5.0 + 99.0 + 1e6, 2.0);
  const std::vector<int64_t> buckets = h->bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2);
  EXPECT_EQ(buckets[1], 1);
  EXPECT_EQ(buckets[2], 1);
  EXPECT_EQ(buckets[3], 1);
  // Bounds passed on later lookups of an existing name are ignored.
  EXPECT_EQ(registry.GetHistogram("test.hist", {5.0}), h);
}

TEST(MetricRegistryTest, QuantileOnEmptyHistogramIsZero) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("test.quantile_empty", {1.0, 10.0});
  EXPECT_EQ(h->Quantile(0.5), 0.0);
  EXPECT_EQ(h->Quantile(0.99), 0.0);
}

TEST(MetricRegistryTest, QuantileInterpolatesWithinBucket) {
  MetricRegistry registry;
  // One bucket (0, 10]: five observations spread the rank uniformly across
  // the bucket, so the estimate is linear interpolation from 0 to 10.
  Histogram* h = registry.GetHistogram("test.quantile_single", {10.0});
  for (int i = 0; i < 5; ++i) h->Observe(5.0);
  EXPECT_DOUBLE_EQ(h->Quantile(0.0), 2.0);   // rank clamps to 1 of 5.
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 5.0);   // rank 2.5 of 5.
  EXPECT_DOUBLE_EQ(h->Quantile(1.0), 10.0);  // rank 5 of 5.
}

TEST(MetricRegistryTest, QuantileWalksCumulativeBuckets) {
  MetricRegistry registry;
  // Buckets (0,1], (1,2], (2,4] with counts 2 / 6 / 2.
  Histogram* h = registry.GetHistogram("test.quantile_multi",
                                       {1.0, 2.0, 4.0});
  for (int i = 0; i < 2; ++i) h->Observe(0.5);
  for (int i = 0; i < 6; ++i) h->Observe(1.5);
  for (int i = 0; i < 2; ++i) h->Observe(3.0);
  // rank 5 of 10 lands halfway through the middle bucket: 1 + 0.5 * (2-1).
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 1.5);
  // rank 9 of 10 lands halfway through the last bucket: 2 + 0.5 * (4-2).
  EXPECT_DOUBLE_EQ(h->Quantile(0.9), 3.0);
  // rank 2 of 10 is exactly the end of the first bucket.
  EXPECT_DOUBLE_EQ(h->Quantile(0.2), 1.0);
}

TEST(MetricRegistryTest, QuantileOverflowClampsToLastFiniteBound) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("test.quantile_overflow",
                                       {1.0, 10.0});
  h->Observe(0.5);
  h->Observe(5.0);
  for (int i = 0; i < 3; ++i) h->Observe(1000.0);  // Overflow bucket.
  // Ranks past the finite buckets cannot be interpolated; they clamp to the
  // last finite bound rather than inventing a value.
  EXPECT_DOUBLE_EQ(h->Quantile(0.99), 10.0);
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 10.0);
  // A rank inside the finite buckets still interpolates normally: rank 1
  // exhausts the single-count first bucket, landing on its upper bound.
  EXPECT_DOUBLE_EQ(h->Quantile(0.1), 1.0);
}

TEST(MetricRegistryTest, JsonExportIncludesQuantileEstimates) {
  MetricRegistry registry;
  registry.GetHistogram("test.quantile_export", {1.0, 10.0})->Observe(5.0);
  const std::string json = registry.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(MetricRegistryTest, ConcurrentIncrementsAreExact) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("test.concurrent");
  Histogram* h = registry.GetHistogram("test.concurrent_hist", {10.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Observe(t < kThreads / 2 ? 1.0 : 100.0);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c->value(), int64_t{kThreads} * kPerThread);
  EXPECT_EQ(h->count(), int64_t{kThreads} * kPerThread);
  const std::vector<int64_t> buckets = h->bucket_counts();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0], int64_t{kThreads} / 2 * kPerThread);
  EXPECT_EQ(buckets[1], int64_t{kThreads} / 2 * kPerThread);
}

TEST(MetricRegistryTest, JsonExportIsWellFormed) {
  MetricRegistry registry;
  registry.GetCounter("json.counter \"quoted\\name\"")->Add(3);
  registry.GetGauge("json.gauge")->Set(-5);
  registry.GetHistogram("json.hist", {1.0, 2.5})->Observe(1.7);
  const std::string json = registry.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"le\""), std::string::npos);
  // The text export lists every metric.
  const std::string text = registry.ToText();
  EXPECT_NE(text.find("json.gauge"), std::string::npos);
  EXPECT_NE(text.find("json.hist"), std::string::npos);
}

TEST(TracerTest, DisabledSpansRecordNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  tracer.Stop();
  const size_t before = tracer.Snapshot().size();
  { PM_TRACE_SPAN("disabled_span", {{"x", 1}}); }
  EXPECT_EQ(tracer.Snapshot().size(), before);
}

TEST(TracerTest, NestedSpansExportWellFormedChromeJson) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  {
    PM_TRACE_SPAN("outer", {{"k", 4}, {"label", "demo \"x\""}});
    {
      PM_TRACE_SPAN("inner", {{"ratio", 0.5}});
    }
    { PM_TRACE_SPAN("inner"); }
  }
  tracer.Stop();

  const std::vector<TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Snapshot orders parents before children; both inners nest inside outer.
  EXPECT_STREQ(events[0].name, "outer");
  for (const TraceEvent& e : events) {
    EXPECT_GE(e.ts_us, 0);
    EXPECT_GE(e.dur_us, 0);
    if (std::string(e.name) == "inner") {
      EXPECT_GE(e.ts_us, events[0].ts_us);
      EXPECT_LE(e.ts_us + e.dur_us, events[0].ts_us + events[0].dur_us);
    }
  }

  const std::string json = tracer.ToChromeTraceJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
}

// On one thread, RAII spans form a stack: any two recorded intervals are
// either disjoint or nested. Across threads no such relation is required.
bool IntervalsConsistent(const std::vector<TraceEvent>& events) {
  for (size_t a = 0; a < events.size(); ++a) {
    for (size_t b = a + 1; b < events.size(); ++b) {
      if (events[a].tid != events[b].tid) continue;
      const int64_t a0 = events[a].ts_us, a1 = a0 + events[a].dur_us;
      const int64_t b0 = events[b].ts_us, b1 = b0 + events[b].dur_us;
      const bool disjoint = a1 <= b0 || b1 <= a0;
      const bool nested = (a0 <= b0 && b1 <= a1) || (b0 <= a0 && a1 <= b1);
      if (!disjoint && !nested) return false;
    }
  }
  return true;
}

TEST(TracerTest, PartMinerEmitsOneSpanPerUnitUnderConcurrentMining) {
  GeneratorParams params;
  params.num_graphs = 40;
  params.num_kernels = 8;
  params.seed = 7;
  const GraphDatabase db = GenerateDatabase(params);

  PartMinerOptions options;
  options.min_support_fraction = 0.2;
  options.partition.k = 4;
  options.unit_mining_threads = 2;

  Tracer& tracer = Tracer::Global();
  tracer.Start();
  const PartMinerResult result = MinePaperPipeline(db, options);
  tracer.Stop();
  EXPECT_GT(result.patterns.size(), 0);

  const std::vector<TraceEvent> events = tracer.Snapshot();
  std::set<int64_t> units_seen;
  int partition_spans = 0, merge_spans = 0, mine_spans = 0;
  int64_t unit_mining_begin = -1, unit_mining_end = -1;
  for (const TraceEvent& e : events) {
    const std::string name = e.name;
    if (name == "unit_mine") {
      for (const obs::TraceArg& arg : e.args) {
        if (std::string(arg.key) == "unit") units_seen.insert(arg.number);
      }
    } else if (name == "partition") {
      ++partition_spans;
    } else if (name == "merge_node") {
      // Only the root is merged: one merge span, at depth 0.
      ++merge_spans;
      for (const obs::TraceArg& arg : e.args) {
        if (std::string(arg.key) == "depth") {
          EXPECT_EQ(arg.number, 0);
        }
      }
    } else if (name == "part_miner.mine") {
      ++mine_spans;
    } else if (name == "unit_mining") {
      unit_mining_begin = e.ts_us;
      unit_mining_end = e.ts_us + e.dur_us;
    }
  }
  // One unit_mine span per unit, each tagged with a distinct unit index.
  EXPECT_EQ(units_seen.size(), 4u);
  EXPECT_EQ(*units_seen.begin(), 0);
  EXPECT_EQ(*units_seen.rbegin(), 3);
  EXPECT_EQ(partition_spans, 1);
  EXPECT_EQ(merge_spans, 1);
  // The pipeline sweeps the root itself: it runs no PartMiner::Mine.
  EXPECT_EQ(mine_spans, 0);

  // Worker spans land inside the unit_mining phase even across threads
  // (the phase joins the workers before it closes).
  ASSERT_GE(unit_mining_begin, 0);
  int unit_spans = 0;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) != "unit_mine") continue;
    ++unit_spans;
    EXPECT_GE(e.ts_us, unit_mining_begin);
    EXPECT_LE(e.ts_us + e.dur_us, unit_mining_end);
  }
  EXPECT_EQ(unit_spans, 4);

  EXPECT_TRUE(IntervalsConsistent(events));

  // The wired pipeline counters moved.
  MetricRegistry& registry = MetricRegistry::Global();
  EXPECT_GT(registry.GetCounter("miner.root_extension_embeddings")->value(),
            0);
  EXPECT_GT(registry.GetCounter("miner.minimality_checks")->value(), 0);
  EXPECT_GT(registry.GetCounter("iso.embedding_extensions")->value(), 0);
  EXPECT_GT(registry.GetCounter("merge.inherited_patterns")->value(), 0);
  EXPECT_GT(registry.GetCounter("merge.candidates_counted")->value(), 0);
}

TEST(TracerTest, MineIsOneRootSweep) {
  GeneratorParams params;
  params.num_graphs = 40;
  params.num_kernels = 8;
  params.seed = 9;
  const GraphDatabase db = GenerateDatabase(params);

  PartMinerOptions options;
  options.min_support_fraction = 0.2;
  options.partition.k = 4;
  options.unit_mining_threads = 2;

  Tracer& tracer = Tracer::Global();
  tracer.Start();
  PartMiner miner(options);
  EXPECT_GT(miner.Mine(db).patterns.size(), 0);
  tracer.Stop();

  // The resident miner partitions nothing and mines no unit, whatever its
  // partition options say: its one phase is the root merge.
  int merge_spans = 0, other_phase_spans = 0;
  for (const TraceEvent& e : tracer.Snapshot()) {
    const std::string name = e.name;
    if (name == "merge_node") {
      ++merge_spans;
      for (const obs::TraceArg& arg : e.args) {
        if (std::string(arg.key) == "depth") {
          EXPECT_EQ(arg.number, 0);
        }
      }
    } else if (name == "partition" || name == "unit_mining" ||
               name == "unit_mine") {
      ++other_phase_spans;
    }
  }
  EXPECT_EQ(merge_spans, 1);
  EXPECT_EQ(other_phase_spans, 0);
}

}  // namespace
}  // namespace partminer
