// Protocol-level golden tests for the partminerd request engine: every
// request line in the table gets a byte-exact response from an in-process
// daemon (the same HandleLine the --stdio and unix-socket transports pump),
// malformed input of every shape produces a structured error — never a
// crash — and the stream server honors framing and shutdown.

#include <sstream>
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

/// Fixed handcrafted database: four graphs sharing the path 0-5-1-7-2
/// (vertex labels 0,1,2; edge labels 5,7), one graph with an extra 9-edge
/// tail. At support 3 exactly three patterns are frequent and every reply
/// below — digest included — is deterministic.
GraphDatabase GoldenDatabase() {
  GraphDatabase db;
  for (int i = 0; i < 4; ++i) {
    Graph g;
    g.AddVertex(0);
    g.AddVertex(1);
    g.AddVertex(2);
    g.AddEdge(0, 1, 5);
    g.AddEdge(1, 2, 7);
    if (i == 0) {
      g.AddVertex(3);
      g.AddEdge(2, 3, 9);
    }
    db.Add(std::move(g));
  }
  return db;
}

class ServiceProtoTest : public ::testing::Test {
 protected:
  ServiceProtoTest() : session_(MakeOptions()), daemon_(&session_, {}) {
    // The flight recorder is process-global; start each scenario from an
    // empty ring so the `dump` golden row stays byte-exact.
    obs::FlightRecorder::Global().Reset();
    EXPECT_TRUE(session_.Init(GoldenDatabase()).ok());
  }

  static SessionOptions MakeOptions() {
    SessionOptions options;
    options.miner.min_support_count = 3;
    options.miner.partition.k = 2;
    return options;
  }

  std::string Handle(const std::string& line) {
    bool shutdown = false;
    return daemon_.HandleLine(line, &shutdown);
  }

  MinerSession session_;
  Daemon daemon_;
};

constexpr char kGoldenDigest[] = "9224405367592692117";

struct GoldenCase {
  const char* request;
  std::string expected;
};

TEST_F(ServiceProtoTest, GoldenTable) {
  const std::string digest = kGoldenDigest;
  const std::vector<GoldenCase> table = {
      // Malformed framing and envelopes: structured bad_request, never a
      // crash, id echoed only when it could be parsed.
      {"",
       R"({"ok":false,"error":{"code":"bad_request","message":"json parse )"
       R"(error at byte 0: unexpected end of input"}})"},
      {"{oops",
       R"({"ok":false,"error":{"code":"bad_request","message":"json parse )"
       R"(error at byte 1: expected '\"'"}})"},
      {"42",
       R"({"ok":false,"error":{"code":"bad_request","message":"request must )"
       R"(be an object"}})"},
      {"[1,2]",
       R"({"ok":false,"error":{"code":"bad_request","message":"request must )"
       R"(be an object"}})"},
      {R"({"cmd":"ping","id":{}})",
       R"({"ok":false,"error":{"code":"bad_request","message":"field 'id' )"
       R"(must be an integer or a string"}})"},
      {R"({"id":1})",
       R"({"id":1,"ok":false,"error":{"code":"bad_request","message":)"
       R"("missing string field 'cmd'"}})"},
      {R"({"id":2,"cmd":"warp"})",
       R"({"id":2,"ok":false,"error":{"code":"unknown_command","message":)"
       R"("unknown command 'warp'"}})"},
      // Bad query arguments.
      {R"({"id":3,"cmd":"query","support":"high"})",
       R"({"id":3,"ok":false,"error":{"code":"invalid_argument","message":)"
       R"("field 'support' must be a non-negative integer"}})"},
      {R"({"id":4,"cmd":"query","support":-2})",
       R"({"id":4,"ok":false,"error":{"code":"invalid_argument","message":)"
       R"("field 'support' must be a non-negative integer"}})"},
      {R"({"id":5,"cmd":"query","support":1})",
       R"({"id":5,"ok":false,"error":{"code":"out_of_range","message":)"
       R"("support 1 below the resident threshold 3 (the resident state )"
       R"x(only knows patterns at or above it)"}})x"},
      {R"({"id":6,"cmd":"query","limit":"all"})",
       R"({"id":6,"ok":false,"error":{"code":"invalid_argument","message":)"
       R"("field 'limit' must be an integer in [-1, 1000000]"}})"},
      // Bad update batches: whole-request rejection at parse time.
      {R"({"id":7,"cmd":"update"})",
       R"({"id":7,"ok":false,"error":{"code":"invalid_argument","message":)"
       R"("update requires an array field 'edits'"}})"},
      {R"({"id":8,"cmd":"update","edits":[]})",
       R"({"id":8,"ok":false,"error":{"code":"invalid_argument","message":)"
       R"("'edits' must be non-empty"}})"},
      {R"({"id":9,"cmd":"update","edits":[{"kind":"teleport","graph":0}]})",
       R"({"id":9,"ok":false,"error":{"code":"invalid_argument","message":)"
       R"("edits[0]: unknown edit kind 'teleport' (want relabel|relabel_edge)"
       R"x(|add_edge|add_vertex)"}})x"},
      {R"({"id":10,"cmd":"update","edits":[{"kind":"relabel","graph":99,)"
       R"("vertex":0,"label":1}]})",
       R"({"id":10,"ok":false,"error":{"code":"invalid_argument","message":)"
       R"x("edits[0]: field 'graph' out of range [0, 4)"}})x"},
      {R"({"id":11,"cmd":"update","edits":[{"kind":"relabel","graph":0,)"
       R"("vertex":0,"label":-4}]})",
       R"({"id":11,"ok":false,"error":{"code":"invalid_argument","message":)"
       R"("edits[0]: labels must be non-negative"}})"},
      // Snapshot without a destination.
      {R"({"id":12,"cmd":"snapshot"})",
       R"({"id":12,"ok":false,"error":{"code":"invalid_argument","message":)"
       R"("no 'path' given and the daemon has no --snapshot-prefix"}})"},
      // Containment probes: unparseable pattern vs wrong type.
      {R"({"id":13,"cmd":"query","pattern":"not a graph"})",
       R"({"id":13,"ok":false,"error":{"code":"corruption","message":)"
       R"("parsing containment pattern: line 1 ('not a graph'): unknown )"
       R"(record tag 'not'"}})"},
      {R"({"id":14,"cmd":"query","pattern":42})",
       R"({"id":14,"ok":false,"error":{"code":"invalid_argument","message":)"
       R"("field 'pattern' must be a gSpan-format string"}})"},
      // Success shapes, digest pinned: the fixture is fully deterministic.
      {R"({"id":15,"cmd":"ping"})",
       R"({"id":15,"ok":true,"result":{"epoch":0,"graphs":4,"patterns":3,)"
       R"("support":3,"queue_depth":0}})"},
      {R"({"id":16,"cmd":"query"})",
       R"({"id":16,"ok":true,"result":{"epoch":0,"digest":")" + digest +
       R"(","support":3,"count":3}})"},
      {R"({"id":17,"cmd":"query","limit":2})",
       R"({"id":17,"ok":true,"result":{"epoch":0,"digest":")" + digest +
       R"x(","support":3,"count":3,"patterns":[{"code":"(0,1,0,5,1)",)x"
       R"x("support":4},{"code":"(0,1,0,5,1)(1,2,1,7,2)","support":4}]}})x"},
      {"{\"id\":18,\"cmd\":\"query\",\"support\":3,"
       "\"pattern\":\"t # 0\\nv 0 0\\nv 1 1\\ne 0 1 5\\n\"}",
       R"({"id":18,"ok":true,"result":{"epoch":0,"digest":")" + digest +
       R"(","support":3,"count":3,"contained":true,"pattern_support":4}})"},
      {"{\"id\":19,\"cmd\":\"query\","
       "\"pattern\":\"t # 0\\nv 0 0\\nv 1 2\\ne 0 1 5\\n\"}",
       R"({"id":19,"ok":true,"result":{"epoch":0,"digest":")" + digest +
       R"(","support":3,"count":3,"contained":false}})"},
      {R"({"id":20,"cmd":"sync"})",
       R"({"id":20,"ok":true,"result":{"epoch":0,"digest":")" + digest +
       R"("}})"},
      // Operator verbs. Nothing above admits an update or trips a fault, so
      // the health state is `serving` and the flight recorder is empty.
      {R"({"id":21,"cmd":"health"})",
       R"({"id":21,"ok":true,"result":{"state":"serving","epoch":0,)"
       R"("queue_depth":0,"frontier_entries":3,"frontier_dead_entries":0,)"
       R"("frontier_bytes":648}})"},
      {R"({"id":22,"cmd":"dump"})",
       R"({"id":22,"ok":true,"result":{"events":[],"dropped":0}})"},
  };
  for (const GoldenCase& c : table) {
    EXPECT_EQ(Handle(c.request), c.expected) << "request: " << c.request;
  }
}

TEST_F(ServiceProtoTest, StringIdsAreEchoedVerbatim) {
  EXPECT_EQ(Handle(R"({"id":"req-\"7\"","cmd":"sync"})"),
            std::string(R"({"id":"req-\"7\"","ok":true,"result":{"epoch":0,)"
                        R"("digest":")") +
                kGoldenDigest + R"("}})");
}

TEST_F(ServiceProtoTest, OversizeLineIsABadRequest) {
  std::string huge = R"({"cmd":"ping","pad":")";
  huge.append(5 * 1024 * 1024, 'x');
  huge += "\"}";
  EXPECT_EQ(Handle(huge),
            R"({"ok":false,"error":{"code":"bad_request","message":)"
            R"("request line too large"}})");
}

TEST_F(ServiceProtoTest, WaitedUpdateAdvancesEpochAndDigestChanges) {
  // wait:true surfaces the coalesced batch result synchronously.
  const std::string response = Handle(
      R"({"id":50,"cmd":"update","wait":true,"edits":[)"
      R"({"kind":"relabel","graph":3,"vertex":0,"label":9}]})");
  Json parsed;
  ASSERT_TRUE(Json::Parse(response, &parsed).ok()) << response;
  ASSERT_NE(parsed.Get("result"), nullptr) << response;
  const Json* result = parsed.Get("result");
  EXPECT_EQ(result->Get("applied")->AsInt(), 1);
  EXPECT_EQ(result->Get("rejected")->AsInt(), 0);
  EXPECT_EQ(result->Get("epoch")->AsInt(), 1);
  EXPECT_EQ(result->Get("remined_units"), nullptr) << response;

  // Relabeling a support-carrying vertex changes the mined set: the digest
  // moves and the epoch is visible to the next query.
  const std::string query = Handle(R"({"id":51,"cmd":"query"})");
  Json queried;
  ASSERT_TRUE(Json::Parse(query, &queried).ok());
  EXPECT_EQ(queried.Get("result")->Get("epoch")->AsInt(), 1);
  EXPECT_NE(queried.Get("result")->Get("digest")->AsString(), kGoldenDigest);
}

TEST_F(ServiceProtoTest, StaleEditsAreSkippedAndCounted) {
  // Valid at parse time (graph/vertex in range) but invalid against live
  // state: relabeling to the same label is fine, but a duplicate add_edge
  // is skipped and counted, not a request failure.
  const std::string response = Handle(
      R"({"id":52,"cmd":"update","wait":true,"edits":[)"
      R"({"kind":"add_edge","graph":0,"u":0,"v":1,"label":5}]})");
  Json parsed;
  ASSERT_TRUE(Json::Parse(response, &parsed).ok()) << response;
  const Json* result = parsed.Get("result");
  ASSERT_NE(result, nullptr) << response;
  EXPECT_EQ(result->Get("applied")->AsInt(), 0);
  EXPECT_EQ(result->Get("rejected")->AsInt(), 1);
  ASSERT_NE(result->Get("first_rejection"), nullptr);
  // A rejected-only batch must not advance the epoch.
  EXPECT_EQ(result->Get("epoch")->AsInt(), 0);
}

TEST_F(ServiceProtoTest, DumpExposesAdmittedUpdatesInFlightOrder) {
  // An applied update leaves a request_admitted then batch_applied trail in
  // the flight recorder, reachable through the `dump` verb.
  const std::string update = Handle(
      R"({"id":60,"cmd":"update","wait":true,"edits":[)"
      R"({"kind":"relabel","graph":3,"vertex":0,"label":9}]})");
  ASSERT_NE(update.find("\"ok\":true"), std::string::npos) << update;

  Json parsed;
  ASSERT_TRUE(Json::Parse(Handle(R"({"id":61,"cmd":"dump"})"), &parsed).ok());
  const Json* events = parsed.Get("result")->Get("events");
  ASSERT_NE(events, nullptr);
  int admitted = 0, applied = 0;
  int64_t admitted_before_applied = -1;
  for (const Json& event : events->items()) {
    const std::string& type = event.Get("type")->AsString();
    if (type == "request_admitted") {
      ++admitted;
      if (applied == 0) admitted_before_applied = event.Get("a")->AsInt();
    }
    if (type == "batch_applied") ++applied;
  }
  EXPECT_EQ(admitted, 1);
  EXPECT_EQ(applied, 1);
  // The admitted event carries the daemon-assigned request id (first request
  // of this fixture instance).
  EXPECT_EQ(admitted_before_applied, 1);
}

TEST_F(ServiceProtoTest, HealthReportsDegradedAfterSnapshotFailure) {
  // A snapshot failure that is not an argument error marks the daemon
  // degraded: /nonexistent is not writable, so the write fails.
  const std::string response =
      Handle(R"({"id":70,"cmd":"snapshot","path":"/nonexistent/x/y"})");
  ASSERT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  const std::string health = Handle(R"({"id":71,"cmd":"health"})");
  EXPECT_NE(health.find("\"state\":\"degraded\""), std::string::npos)
      << health;
  // ...and the failure is on the flight recorder.
  Json parsed;
  ASSERT_TRUE(Json::Parse(Handle(R"({"id":72,"cmd":"dump"})"), &parsed).ok());
  bool saw_snapshot_failed = false;
  for (const Json& event : parsed.Get("result")->Get("events")->items()) {
    if (event.Get("type")->AsString() == "snapshot_failed") {
      saw_snapshot_failed = true;
    }
  }
  EXPECT_TRUE(saw_snapshot_failed);
}

TEST_F(ServiceProtoTest, ServeStreamFramesOneResponsePerLineAndStops) {
  std::istringstream in(
      "{\"id\":1,\"cmd\":\"ping\"}\r\n"
      "{bad\n"
      "{\"id\":2,\"cmd\":\"shutdown\"}\n"
      "{\"id\":3,\"cmd\":\"ping\"}\n");  // After shutdown: never answered.
  std::ostringstream out;
  daemon_.ServeStream(in, out);
  std::vector<std::string> lines;
  std::istringstream reader(out.str());
  for (std::string line; std::getline(reader, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u) << out.str();
  EXPECT_NE(lines[0].find("\"id\":1"), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(lines[1].find("bad_request"), std::string::npos);
  EXPECT_NE(lines[2].find("\"stopping\":true"), std::string::npos);
}

TEST(ServiceProtoStandaloneTest, UninitializedSessionFailsCleanly) {
  SessionOptions options;
  options.miner.min_support_count = 3;
  MinerSession session(options);
  Daemon daemon(&session, {});
  bool shutdown = false;
  const std::string response =
      daemon.HandleLine(R"({"id":1,"cmd":"query"})", &shutdown);
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(response.find("session not initialized"), std::string::npos);
  // Health still answers — and reports that the daemon is not serving yet.
  const std::string health =
      daemon.HandleLine(R"({"id":2,"cmd":"health"})", &shutdown);
  EXPECT_NE(health.find("\"state\":\"starting\""), std::string::npos)
      << health;
}

}  // namespace
}  // namespace service
}  // namespace partminer
