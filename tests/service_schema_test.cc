// Pins the operator-facing JSON schemas: the `metrics`, `health`, `dump`,
// and `ping` results must keep their field names and types stable, because
// pmtop, loadgen's breakdown report, and bench_compare.py all consume them.
// Unlike service_proto_test this is shape-based, not byte-exact — values
// (uptime, latencies) vary run to run; the contract is presence and type.

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/flight_recorder.h"
#include "service/daemon.h"
#include "service/json.h"
#include "service/session.h"

namespace partminer {
namespace service {
namespace {

GraphDatabase SchemaDatabase() {
  GraphDatabase db;
  for (int i = 0; i < 3; ++i) {
    Graph g;
    g.AddVertex(0);
    g.AddVertex(1);
    g.AddEdge(0, 1, 5);
    db.Add(std::move(g));
  }
  return db;
}

class ServiceSchemaTest : public ::testing::Test {
 protected:
  ServiceSchemaTest() : session_(MakeOptions()), daemon_(&session_, {}) {
    obs::FlightRecorder::Global().Reset();
    EXPECT_TRUE(session_.Init(SchemaDatabase()).ok());
  }

  static SessionOptions MakeOptions() {
    SessionOptions options;
    options.miner.min_support_count = 2;
    return options;
  }

  /// Handles `line` and returns the parsed `result` object, failing the
  /// test on protocol errors.
  Json Result(const std::string& line) {
    bool shutdown = false;
    const std::string response = daemon_.HandleLine(line, &shutdown);
    Json parsed;
    EXPECT_TRUE(Json::Parse(response, &parsed).ok()) << response;
    const Json* ok = parsed.Get("ok");
    EXPECT_TRUE(ok != nullptr && ok->AsBool()) << response;
    const Json* result = parsed.Get("result");
    EXPECT_NE(result, nullptr) << response;
    return result != nullptr ? *result : Json::Object();
  }

  static void ExpectInt(const Json& obj, const char* key) {
    const Json* field = obj.Get(key);
    ASSERT_NE(field, nullptr) << "missing field '" << key << "'";
    EXPECT_TRUE(field->is_int()) << "field '" << key << "' not an integer";
  }

  static void ExpectNumber(const Json& obj, const char* key) {
    const Json* field = obj.Get(key);
    ASSERT_NE(field, nullptr) << "missing field '" << key << "'";
    EXPECT_TRUE(field->is_number()) << "field '" << key << "' not a number";
  }

  static void ExpectString(const Json& obj, const char* key) {
    const Json* field = obj.Get(key);
    ASSERT_NE(field, nullptr) << "missing field '" << key << "'";
    EXPECT_TRUE(field->is_string()) << "field '" << key << "' not a string";
  }

  MinerSession session_;
  Daemon daemon_;
};

TEST_F(ServiceSchemaTest, PingSchema) {
  const Json result = Result(R"({"id":1,"cmd":"ping"})");
  ExpectInt(result, "epoch");
  ExpectInt(result, "graphs");
  ExpectInt(result, "patterns");
  ExpectInt(result, "support");
  ExpectInt(result, "queue_depth");
}

TEST_F(ServiceSchemaTest, HealthSchema) {
  const Json result = Result(R"({"id":1,"cmd":"health"})");
  ExpectString(result, "state");
  const std::string& state = result.Get("state")->AsString();
  EXPECT_TRUE(state == "starting" || state == "serving" ||
              state == "degraded" || state == "overloaded")
      << state;
  ExpectInt(result, "epoch");
  ExpectInt(result, "queue_depth");
  ExpectInt(result, "frontier_entries");
  ExpectInt(result, "frontier_dead_entries");
  ExpectInt(result, "frontier_bytes");
}

TEST_F(ServiceSchemaTest, MetricsSchemaIncludesOperatorFields) {
  // Drive one request through every timed segment first so the per-verb and
  // pipeline histograms exist in the registry.
  Result(
      R"({"id":1,"cmd":"update","wait":true,"edits":[)"
      R"({"kind":"relabel","graph":0,"vertex":0,"label":3}]})");
  // Verb latency is observed after the response is rendered, so a metrics
  // request only sees its own verb histogram from the second call on.
  Result(R"({"id":2,"cmd":"metrics"})");
  const Json result = Result(R"({"id":3,"cmd":"metrics"})");
  ExpectInt(result, "queue_depth");
  ExpectInt(result, "epoch");
  ExpectInt(result, "uptime_ms");
  ExpectString(result, "state");

  const Json* registry = result.Get("registry");
  ASSERT_NE(registry, nullptr);
  ASSERT_TRUE(registry->is_object());
  const Json* histograms = registry->Get("histograms");
  ASSERT_NE(histograms, nullptr);
  ASSERT_TRUE(histograms->is_object());
  // Every histogram export carries count/sum and the quantile estimates.
  int checked = 0;
  for (const auto& [name, histogram] : histograms->fields()) {
    ASSERT_TRUE(histogram.is_object()) << name;
    ExpectInt(histogram, "count");
    ExpectNumber(histogram, "sum");
    ExpectNumber(histogram, "p50");
    ExpectNumber(histogram, "p95");
    ExpectNumber(histogram, "p99");
    const Json* buckets = histogram.Get("buckets");
    ASSERT_NE(buckets, nullptr) << name;
    EXPECT_TRUE(buckets->is_array()) << name;
    ++checked;
  }
  EXPECT_GT(checked, 0);
  // The lifecycle segments the loadgen breakdown reads must be present.
  for (const char* name :
       {"service.request_ms", "service.queue_wait_ms",
        "service.coalesce_ms", "service.phase_a_ms", "service.phase_b_ms",
        "service.publish_ms", "service.update_pipeline_ms",
        "service.verb.update_ms",
        "service.verb.metrics_ms"}) {
    EXPECT_NE(histograms->Get(name), nullptr)
        << "registry lost histogram '" << name << "'";
  }
}

TEST_F(ServiceSchemaTest, DumpSchema) {
  Result(
      R"({"id":1,"cmd":"update","wait":true,"edits":[)"
      R"({"kind":"relabel","graph":0,"vertex":0,"label":3}]})");
  const Json result = Result(R"({"id":2,"cmd":"dump"})");
  ExpectInt(result, "dropped");
  const Json* events = result.Get("events");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->items().empty());
  for (const Json& event : events->items()) {
    ASSERT_TRUE(event.is_object());
    ExpectInt(event, "seq");
    ExpectInt(event, "ts_us");
    ExpectString(event, "type");
    ExpectInt(event, "a");
    ExpectInt(event, "b");
    ExpectInt(event, "c");
    const Json* detail = event.Get("detail");
    if (detail != nullptr) {
      EXPECT_TRUE(detail->is_string());
    }
  }
}

}  // namespace
}  // namespace service
}  // namespace partminer
