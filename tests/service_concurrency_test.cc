// Concurrency contract of the resident mining service: N client threads
// hammer one daemon with interleaved updates and queries. Every query must
// observe a consistent (epoch, digest) pair — exactly the pattern-set
// digest the batcher recorded when it produced that epoch, never a torn
// intermediate — epochs are monotone per connection, and queue-bound
// rejections surface as structured `overloaded` errors, not dropped work.
// The read plane is checked directly too: queries keep answering from the
// previous published epoch while a long batch apply runs, ping/sync replies
// come from one epoch, DigestAt keeps a bounded window of epochs, the
// published index patched from each round's change equals a full rebuild,
// and `health` counts the frontier's dead entries exactly.
// The tests are TSan-clean: resident state is guarded by the session lock
// and the queue mutex, and readers share only immutable published epochs,
// whose pointer is copied and swapped under its own mutex.

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fnv.h"
#include "common/parse.h"
#include "common/random.h"
#include "core/inc_part_miner.h"
#include "core/part_miner.h"
#include "datagen/edit_stream.h"
#include "datagen/generator.h"
#include "graph/graph_io.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "service/daemon.h"
#include "service/json.h"
#include "service/session.h"
#include "tests/test_util.h"

namespace partminer {
namespace service {
namespace {

SessionOptions MakeOptions() {
  SessionOptions options;
  options.miner.min_support_count = 3;
  options.miner.partition.k = 2;
  return options;
}

struct ThreadLog {
  std::vector<std::pair<uint64_t, uint64_t>> observations;
  int overloaded = 0;
  int updates_acked = 0;
  int failures = 0;
  std::string first_failure;

  void Fail(const std::string& what) {
    ++failures;
    if (first_failure.empty()) first_failure = what;
  }
};

void DriveClient(Daemon* daemon, const std::vector<StreamItem>& items,
                 size_t first, size_t stride, ThreadLog* log) {
  uint64_t last_epoch = 0;
  for (size_t i = first; i < items.size(); i += stride) {
    const StreamItem& item = items[i];
    std::string line;
    if (item.is_update) {
      line = "{\"id\":" + std::to_string(i) + ",\"cmd\":\"update\",\"edits\":[";
      for (size_t j = 0; j < item.edits.size(); ++j) {
        if (j > 0) line.push_back(',');
        line += EditToJson(item.edits[j]).Dump();
      }
      line += "]}";
    } else {
      // A limit makes every reply read code text from its epoch while the
      // batcher writes the next one's.
      line = "{\"id\":" + std::to_string(i) +
             ",\"cmd\":\"query\",\"support\":" +
             std::to_string(item.query_support) + ",\"limit\":3}";
    }
    bool shutdown = false;
    const std::string response = daemon->HandleLine(line, &shutdown);
    Json parsed;
    if (!Json::Parse(response, &parsed).ok()) {
      log->Fail("unparseable: " + response);
      continue;
    }
    const Json* id = parsed.Get("id");
    if (id == nullptr || !id->is_int() ||
        id->AsInt() != static_cast<int64_t>(i)) {
      log->Fail("id mismatch: " + response);
      continue;
    }
    const Json* ok = parsed.Get("ok");
    if (ok != nullptr && ok->AsBool()) {
      if (item.is_update) {
        ++log->updates_acked;
      } else {
        const Json* result = parsed.Get("result");
        const Json* epoch = result ? result->Get("epoch") : nullptr;
        const Json* digest = result ? result->Get("digest") : nullptr;
        uint64_t digest_value = 0;
        if (epoch == nullptr || !epoch->is_int() || digest == nullptr ||
            !digest->is_string() ||
            !ParseUint64(digest->AsString(), &digest_value)) {
          log->Fail("malformed query result: " + response);
          continue;
        }
        const uint64_t e = static_cast<uint64_t>(epoch->AsInt());
        if (e < last_epoch) {
          log->Fail("epoch went backwards: " + response);
        }
        last_epoch = e;
        log->observations.emplace_back(e, digest_value);
      }
    } else {
      const Json* error = parsed.Get("error");
      const Json* code = error ? error->Get("code") : nullptr;
      if (item.is_update && code != nullptr && code->is_string() &&
          code->AsString() == "overloaded") {
        ++log->overloaded;  // Legitimate backpressure, reported not hidden.
      } else {
        log->Fail("unexpected error: " + response);
      }
    }
  }
}

class ServiceConcurrencyTest : public ::testing::TestWithParam<int> {};

TEST_P(ServiceConcurrencyTest, ConsistentEpochDigestUnderLoad) {
  const int clients = GetParam();
  Rng rng(99000 + clients);
  GraphDatabase db = testutil::RandomDatabase(&rng, /*graphs=*/20,
                                              /*vertices=*/7,
                                              /*extra_edges=*/2,
                                              /*vertex_labels=*/3,
                                              /*edge_labels=*/3);
  MinerSession session(MakeOptions());
  ASSERT_TRUE(session.Init(std::move(db)).ok());

  EditStreamOptions stream;
  stream.seed = 1234 + clients;
  stream.requests = 60 * clients;
  stream.update_fraction = 0.3;
  stream.edits_per_update = 3;
  stream.num_labels = 3;
  stream.resident_support = session.resident_support();
  GraphDatabase generator_view;  // GenerateEditStream needs the initial db.
  {
    Rng regen(99000 + clients);
    generator_view = testutil::RandomDatabase(&regen, 20, 7, 2, 3, 3);
  }
  const std::vector<StreamItem> items =
      GenerateEditStream(generator_view, stream);

  // A small queue so the 8-thread round genuinely exercises backpressure.
  DaemonOptions daemon_options;
  daemon_options.queue_cap_edits = 24;
  daemon_options.batch_max_edits = 8;
  Daemon daemon(&session, daemon_options);

  std::vector<ThreadLog> logs(clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(DriveClient, &daemon, std::cref(items),
                         static_cast<size_t>(c),
                         static_cast<size_t>(clients), &logs[c]);
  }
  for (std::thread& t : threads) t.join();
  daemon.WaitQueueDrained();

  int total_observations = 0, total_overloaded = 0, total_acked = 0;
  for (const ThreadLog& log : logs) {
    EXPECT_EQ(log.failures, 0) << log.first_failure;
    total_overloaded += log.overloaded;
    total_acked += log.updates_acked;
    for (const auto& [epoch, digest] : log.observations) {
      ++total_observations;
      // The ground truth: the digest the batcher recorded when it produced
      // this epoch. A mismatch means a query saw a half-applied batch.
      EXPECT_EQ(session.DigestAt(epoch), digest) << "epoch " << epoch;
    }
  }
  EXPECT_GT(total_observations, 0);
  // Every update was either acknowledged or rejected as overloaded.
  int total_updates = 0;
  for (const StreamItem& item : items) total_updates += item.is_update;
  EXPECT_EQ(total_acked + total_overloaded, total_updates);
  // After the drain, the live digest matches the last recorded epoch.
  EXPECT_EQ(session.DigestAt(session.epoch()), session.digest());

  ::testing::Test::RecordProperty("overloaded", total_overloaded);
}

INSTANTIATE_TEST_SUITE_P(Clients, ServiceConcurrencyTest,
                         ::testing::Values(1, 2, 8));

TEST(ServiceBackpressureTest, QueueBoundIsEnforced) {
  Rng rng(424242);
  GraphDatabase db = testutil::RandomDatabase(&rng, 12, 6, 2, 3, 3);
  GraphDatabase view = db;
  MinerSession session(MakeOptions());
  ASSERT_TRUE(session.Init(std::move(db)).ok());

  // Queue cap below one batch's worth: the first update fills the queue,
  // later ones must see `overloaded` while the batcher is busy. Construct
  // the race deterministically by flooding more edits than the cap.
  DaemonOptions daemon_options;
  daemon_options.queue_cap_edits = 6;
  daemon_options.batch_max_edits = 2;
  Daemon daemon(&session, daemon_options);

  EditStreamOptions stream;
  stream.seed = 5;
  stream.requests = 30;
  stream.update_fraction = 1.0;
  stream.edits_per_update = 3;
  stream.num_labels = 3;
  stream.resident_support = session.resident_support();
  const std::vector<StreamItem> items = GenerateEditStream(view, stream);

  int overloaded = 0, acked = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    bool shutdown = false;
    std::string line = "{\"cmd\":\"update\",\"edits\":[";
    for (size_t j = 0; j < items[i].edits.size(); ++j) {
      if (j > 0) line.push_back(',');
      line += EditToJson(items[i].edits[j]).Dump();
    }
    line += "]}";
    const std::string response = daemon.HandleLine(line, &shutdown);
    if (response.find("\"overloaded\"") != std::string::npos) {
      ++overloaded;
    } else if (response.find("\"queued\":true") != std::string::npos) {
      ++acked;
      EXPECT_LE(daemon.queue_depth_edits(), daemon_options.queue_cap_edits);
    } else {
      ADD_FAILURE() << response;
    }
  }
  EXPECT_EQ(acked + overloaded, static_cast<int>(items.size()));
  daemon.WaitQueueDrained();
  EXPECT_EQ(daemon.queue_depth_edits(), 0);
}

/// Parses `response`; true when it is a success carrying a result object.
bool ResultOf(const std::string& response, Json* parsed, const Json** result) {
  if (!Json::Parse(response, parsed).ok()) return false;
  const Json* ok = parsed->Get("ok");
  *result = parsed->Get("result");
  return ok != nullptr && ok->is_bool() && ok->AsBool() && *result != nullptr;
}

std::string UpdateLine(const std::vector<EditOp>& edits) {
  std::string line = "{\"cmd\":\"update\",\"wait\":true,\"edits\":[";
  for (size_t j = 0; j < edits.size(); ++j) {
    if (j > 0) line.push_back(',');
    line += EditToJson(edits[j]).Dump();
  }
  return line + "]}";
}

// Writers send waited updates, so every applied epoch comes back in some
// ack with its pattern count; readers meanwhile send ping and sync. Each
// reply must describe one epoch: sync's (epoch, digest) is DigestAt(epoch)
// and ping's (epoch, patterns) is the count acked for that epoch.
TEST(ServiceConcurrencyTest, PingAndSyncRepliesAreUntorn) {
  Rng rng(4711);
  GraphDatabase db = testutil::RandomDatabase(&rng, 20, 7, 2, 3, 3);
  const GraphDatabase view = db;
  MinerSession session(MakeOptions());
  ASSERT_TRUE(session.Init(std::move(db)).ok());
  Daemon daemon(&session, DaemonOptions());

  EditStreamOptions stream;
  stream.seed = 77;
  stream.requests = 80;
  stream.update_fraction = 1.0;
  stream.edits_per_update = 2;
  stream.num_labels = 3;
  const std::vector<StreamItem> items = GenerateEditStream(view, stream);

  std::mutex acked_mu;
  std::map<uint64_t, int64_t> patterns_at;  // epoch -> acked pattern count
  patterns_at[0] = session.pattern_count();
  std::atomic<int> writers_left{2};
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = w; i < items.size(); i += 2) {
        bool shutdown = false;
        Json parsed;
        const Json* result = nullptr;
        const std::string response =
            daemon.HandleLine(UpdateLine(items[i].edits), &shutdown);
        if (!ResultOf(response, &parsed, &result)) {
          ADD_FAILURE() << response;
          ++failures;
          continue;
        }
        std::lock_guard<std::mutex> lock(acked_mu);
        patterns_at[result->Get("epoch")->AsInt()] =
            result->Get("patterns")->AsInt();
      }
      --writers_left;
    });
  }
  std::vector<std::pair<uint64_t, int64_t>> pings;
  std::vector<std::pair<uint64_t, uint64_t>> syncs;
  threads.emplace_back([&] {
    while (writers_left.load() > 0) {
      bool shutdown = false;
      Json parsed;
      const Json* result = nullptr;
      std::string response = daemon.HandleLine(R"({"cmd":"ping"})", &shutdown);
      ASSERT_TRUE(ResultOf(response, &parsed, &result)) << response;
      pings.emplace_back(result->Get("epoch")->AsInt(),
                         result->Get("patterns")->AsInt());
      response = daemon.HandleLine(R"({"cmd":"sync"})", &shutdown);
      ASSERT_TRUE(ResultOf(response, &parsed, &result)) << response;
      uint64_t digest = 0;
      ASSERT_TRUE(ParseUint64(result->Get("digest")->AsString(), &digest));
      syncs.emplace_back(result->Get("epoch")->AsInt(), digest);
    }
  });
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  EXPECT_FALSE(pings.empty());
  for (const auto& [epoch, patterns] : pings) {
    ASSERT_TRUE(patterns_at.count(epoch)) << "ping saw unacked epoch " << epoch;
    EXPECT_EQ(patterns_at[epoch], patterns) << "ping at epoch " << epoch;
  }
  for (const auto& [epoch, digest] : syncs) {
    EXPECT_EQ(session.DigestAt(epoch), digest) << "sync at epoch " << epoch;
  }
}

// One batch relabelling half of a generated database re-mines for tens of
// milliseconds. A query issued after the batch is inside ApplyBatch (the
// admission check, seen through the fault injector's operation count, runs
// under the writer's lock) must still answer at once from the previous
// epoch; a read path that waited on the apply would answer only afterwards,
// with the new epoch.
TEST(ServiceReadPlaneTest, QueriesAnswerFromPreviousEpochDuringApply) {
  GeneratorParams params;
  params.num_graphs = 400;
  params.seed = 3;
  GraphDatabase db = GenerateDatabase(params);
  std::vector<EditOp> edits;
  for (int g = 0; g < db.size(); g += 2) {
    EditOp op;
    op.graph = g;
    op.label = (db.graph(g).vertex_label(0) + 1) % params.num_labels;
    edits.push_back(op);
  }
  SessionOptions options;
  options.miner.partition.k = 2;
  MinerSession session(options);
  ASSERT_TRUE(session.Init(std::move(db)).ok());
  FaultInjector admission;  // Never fails; counts ApplyBatch admissions.
  session.set_fault_injector(&admission);
  const uint64_t before = session.epoch();
  const uint64_t before_digest = session.digest();

  std::atomic<bool> applied{false};
  BatchResult batch;
  Status apply_status;
  std::thread writer([&] {
    apply_status = session.ApplyBatch(edits, &batch);
    applied.store(true);
  });
  while (admission.operations(FaultInjector::Op::kAlloc) == 0 &&
         !applied.load()) {
    std::this_thread::yield();
  }
  int old_epoch_replies = 0, new_epoch_replies = 0;
  QueryRequest request;
  request.limit = 10;
  while (!applied.load()) {
    QueryReply reply;
    if (!session.Query(request, &reply).ok()) {
      ADD_FAILURE() << "query failed during the apply";
      break;
    }
    if (reply.epoch == before) {
      ++old_epoch_replies;
      EXPECT_EQ(reply.digest, before_digest);
    } else {
      ++new_epoch_replies;
    }
  }
  writer.join();
  ASSERT_TRUE(apply_status.ok()) << apply_status.ToString();
  EXPECT_EQ(batch.epoch, before + 1);
  EXPECT_GE(old_epoch_replies, 20)
      << "apply took " << batch.apply_seconds * 1e3 << " ms; "
      << new_epoch_replies << " replies waited for the new epoch";
  ::testing::Test::RecordProperty("old_epoch_replies", old_epoch_replies);
}

// The published digest, folded into the publish step, is the digest of the
// resident pattern set at every epoch, and the published reply order and
// containment table agree with the resident set.
TEST(ServiceReadPlaneTest, PublishedEpochMatchesResidentSetEveryEpoch) {
  Rng rng(2718);
  GraphDatabase db = testutil::RandomDatabase(&rng, 24, 7, 2, 3, 3);
  const GraphDatabase view = db;
  MinerSession session(MakeOptions());
  ASSERT_TRUE(session.Init(std::move(db)).ok());

  EditStreamOptions stream;
  stream.seed = 31;
  stream.requests = 12;
  stream.update_fraction = 1.0;
  stream.edits_per_update = 3;
  stream.num_labels = 3;
  const std::vector<StreamItem> items = GenerateEditStream(view, stream);
  for (size_t round = 0; round <= items.size(); ++round) {
    if (round > 0) {
      BatchResult result;
      ASSERT_TRUE(session.ApplyBatch(items[round - 1].edits, &result).ok());
    }
    const PatternSet resident = session.VerifiedPatterns();
    const uint64_t epoch = session.epoch();
    EXPECT_EQ(session.digest(), PatternSetDigest(resident)) << epoch;
    EXPECT_EQ(session.DigestAt(epoch), session.digest()) << epoch;
    EXPECT_EQ(session.pattern_count(), resident.size());

    std::vector<const PatternInfo*> expected;
    for (const PatternInfo& p : resident.patterns()) expected.push_back(&p);
    std::sort(expected.begin(), expected.end(),
              [](const PatternInfo* a, const PatternInfo* b) {
                if (a->support != b->support) return a->support > b->support;
                return a->code.Compare(b->code) < 0;
              });
    const int support = session.resident_support() + 1;
    QueryRequest all;
    all.limit = -1;
    all.support = support;
    QueryReply reply;
    ASSERT_TRUE(session.Query(all, &reply).ok());
    int frequent = 0;
    for (const PatternInfo* p : expected) frequent += p->support >= support;
    ASSERT_EQ(reply.count, frequent) << epoch;
    ASSERT_EQ(static_cast<int>(reply.patterns.size()), frequent);
    for (int i = 0; i < frequent; ++i) {
      EXPECT_EQ(reply.patterns[i].first, expected[i]->code.ToString());
      EXPECT_EQ(reply.patterns[i].second, expected[i]->support);
    }

    for (const PatternInfo* p : expected) {
      GraphDatabase probe;
      probe.Add(p->code.ToGraph());
      std::ostringstream text;
      ASSERT_TRUE(WriteGraphDatabase(probe, text).ok());
      QueryRequest contain;
      contain.pattern_text = text.str();
      QueryReply hit;
      ASSERT_TRUE(session.Query(contain, &hit).ok());
      EXPECT_TRUE(hit.contained) << p->code.ToString();
      EXPECT_EQ(hit.pattern_support, p->support);
    }
  }
}

/// A database whose relabel batches move patterns both ways across the
/// threshold, and the session options it is mined at.
GraphDatabase ChurnDatabase() {
  GeneratorParams params;
  params.num_graphs = 40;
  params.avg_edges = 10;
  params.num_labels = 5;
  params.num_kernels = 20;
  params.avg_kernel_edges = 3;
  params.seed = 5;
  return GenerateDatabase(params);
}

SessionOptions ChurnOptions() {
  SessionOptions options;
  options.miner.min_support_count = 4;
  return options;
}

std::vector<StreamItem> ChurnBatches(const GraphDatabase& db, int batches) {
  EditStreamOptions stream;
  stream.seed = 77;
  stream.requests = batches;
  stream.update_fraction = 1.0;
  stream.edits_per_update = 4;
  stream.relabel_weight = 0.6;
  stream.add_edge_weight = 0.25;
  stream.add_vertex_weight = 0.15;
  stream.num_labels = 5;
  return GenerateEditStream(db, stream);
}

/// The session's resident state rebuilt beside it: the same database, the
/// same edits and the same rounds, so its frontier is the session's.
struct Mirror {
  GraphDatabase db;
  PartMiner miner;
  IncPartMiner inc;

  Mirror(GraphDatabase database, const SessionOptions& options)
      : db(std::move(database)), miner(options.miner) {
    miner.Mine(db);
  }
  /// Applies `edits` as ApplyBatch does; the round's change, or nothing
  /// when every edit was rejected.
  IncPartMinerResult Apply(const std::vector<EditOp>& edits) {
    UpdateLog log;
    if (ApplyEditBatch(&db, edits, &log).applied == 0) return {};
    return inc.Update(&miner, db, log);
  }
};

/// `health` answers the dead-entry count on demand, not per publish: after
/// a relabel batch that cuts a prefix it reports exactly what the frontier
/// counts.
TEST(ServiceReadPlaneTest, HealthReportsTheFrontiersDeadEntriesAfterACut) {
  const GraphDatabase db = ChurnDatabase();
  MinerSession session(ChurnOptions());
  ASSERT_TRUE(session.Init(db).ok());
  Daemon daemon(&session, {});
  Mirror mirror(db, ChurnOptions());

  int cut_batches = 0;
  for (const StreamItem& item : ChurnBatches(db, 40)) {
    BatchResult result;
    ASSERT_TRUE(session.ApplyBatch(item.edits, &result).ok());
    const bool cuts = !mirror.Apply(item.edits).fi.empty();
    const Frontier& frontier = mirror.miner.root_frontier().map;
    bool shutdown = false;
    Json health;
    ASSERT_TRUE(Json::Parse(daemon.HandleLine(R"({"cmd":"health"})",
                                              &shutdown),
                            &health)
                    .ok());
    const Json* reply = health.Get("result");
    ASSERT_NE(reply, nullptr);
    EXPECT_EQ(reply->Get("epoch")->AsInt(),
              static_cast<int64_t>(result.epoch));
    EXPECT_EQ(reply->Get("frontier_entries")->AsInt(),
              static_cast<int64_t>(frontier.size()));
    EXPECT_EQ(reply->Get("frontier_dead_entries")->AsInt(),
              static_cast<int64_t>(frontier.CountDead()));
    if (cuts && frontier.CountDead() > 0) ++cut_batches;
  }
  EXPECT_GT(cut_batches, 0) << "no batch cut a prefix with entries under it";
}

/// The published index is patched from each round's change; it must equal
/// a from-scratch stringify-and-sort of the resident set after every epoch,
/// through cuts, FI and IF transitions, a round that compacts the frontier
/// and a batch whose edits are all rejected.
TEST(ServiceReadPlaneTest, IncrementalPublishEqualsAFullRebuildEveryEpoch) {
  const GraphDatabase db = ChurnDatabase();
  const SessionOptions options = ChurnOptions();
  MinerSession session(options);
  ASSERT_TRUE(session.Init(db).ok());
  Mirror mirror(db, options);

  std::vector<StreamItem> batches = ChurnBatches(db, 120);
  // A batch relabelling vertex 0 of most graphs leaves more than half the
  // database pending, so its round compacts the frontier.
  std::vector<EditOp> wide;
  for (int g = 0; g < db.size(); ++g) {
    if (g % 4 == 3) continue;
    EditOp op;
    op.graph = g;
    op.label = (db.graph(g).vertex_label(0) + 1) % 5;
    wide.push_back(op);
  }
  ASSERT_GT(2 * wide.size(), static_cast<size_t>(db.size()));
  batches[20].edits = wide;
  obs::Counter* compactions = obs::MetricRegistry::Global().GetCounter(
      "partminer.update.frontier_compactions");
  // A batch whose every edit is out of range is rejected whole.
  EditOp stale;
  stale.graph = db.size() + 3;
  batches[30].edits = {stale, stale};

  const auto expect_rebuilt = [&](const std::string& what) {
    const std::shared_ptr<const Published> pub = session.Current();
    const PatternSet resident = session.VerifiedPatterns();
    std::vector<std::pair<std::string, int>> by_code;
    for (const PatternInfo& p : resident.patterns()) {
      by_code.emplace_back(p.code.ToString(), p.support);
    }
    std::sort(by_code.begin(), by_code.end());
    std::vector<const PatternInfo*> by_support;
    for (const PatternInfo& p : resident.patterns()) by_support.push_back(&p);
    std::sort(by_support.begin(), by_support.end(),
              [](const PatternInfo* a, const PatternInfo* b) {
                if (a->support != b->support) return a->support > b->support;
                return a->code.Compare(b->code) < 0;
              });

    ASSERT_EQ(pub->by_code.size(), by_code.size()) << what;
    for (size_t i = 0; i < by_code.size(); ++i) {
      ASSERT_EQ(pub->by_code[i].first, by_code[i].first) << what << " " << i;
      ASSERT_EQ(pub->by_code[i].second, by_code[i].second) << what << " " << i;
    }
    ASSERT_EQ(pub->by_support.size(), by_support.size()) << what;
    for (size_t r = 0; r < by_support.size(); ++r) {
      const auto& [code, support] = pub->by_code[pub->by_support[r]];
      ASSERT_EQ(code, by_support[r]->code.ToString()) << what << " " << r;
      ASSERT_EQ(support, by_support[r]->support) << what << " " << r;
    }
    uint64_t digest = 1469598103934665603ull;
    for (const auto& [code, support] : by_code) {
      digest = Fnv1a(code.data(), code.size(), digest);
      digest = Fnv1a(&support, sizeof(support), digest);
    }
    EXPECT_EQ(pub->digest, digest) << what;
    EXPECT_EQ(pub->digest, PatternSetDigest(resident)) << what;
    EXPECT_EQ(session.DigestAt(pub->epoch), pub->digest) << what;
  };

  expect_rebuilt("init");
  const CodeArena* arena = session.Current()->arena.get();
  int fi = 0, if_ = 0, changed = 0, rejected = 0, arenas = 1;
  for (size_t b = 0; b < batches.size(); ++b) {
    const int64_t compactions_before = compactions->value();
    BatchResult result;
    ASSERT_TRUE(session.ApplyBatch(batches[b].edits, &result).ok());
    const IncPartMinerResult round = mirror.Apply(batches[b].edits);
    fi += round.fi.size();
    if_ += round.if_.size();
    changed += static_cast<int>(round.changed.size());
    if (b == 20) EXPECT_GT(compactions->value(), compactions_before);
    rejected += result.applied == 0;
    expect_rebuilt("batch " + std::to_string(b));
    arenas += session.Current()->arena.get() != arena;
    arena = session.Current()->arena.get();
  }
  EXPECT_GT(fi, 0);
  EXPECT_GT(if_, 0);
  EXPECT_GT(changed, 0);
  EXPECT_EQ(rejected, 1);
  // Enough codes left for their text to move the live text to a new arena.
  EXPECT_GT(arenas, 1);
}

// DigestAt keeps the last kDigestWindow epochs: after more batches than
// that, the oldest epochs read 0 ("unknown") and every epoch inside the
// window still reads the digest published when it was produced.
TEST(ServiceReadPlaneTest, DigestAtKeepsABoundedWindow) {
  Rng rng(5);
  GraphDatabase db = testutil::RandomDatabase(&rng, 4, 4, 1, 2, 2);
  const Label first = db.graph(0).vertex_label(0);
  SessionOptions options;
  options.miner.min_support_count = 2;
  options.miner.partition.k = 1;
  MinerSession session(options);
  ASSERT_TRUE(session.Init(std::move(db)).ok());

  const uint64_t window = MinerSession::kDigestWindow;
  const uint64_t last = window + 100;
  std::vector<uint64_t> published = {session.digest()};
  for (uint64_t e = 1; e <= last; ++e) {
    EditOp op;
    op.label = e % 2 == 0 ? first : first + 1;  // Toggle one vertex label.
    BatchResult result;
    ASSERT_TRUE(session.ApplyBatch({op}, &result).ok());
    ASSERT_EQ(result.epoch, e);
    published.push_back(session.digest());
  }
  for (uint64_t e = 0; e <= last; ++e) {
    if (e + window <= last) {
      EXPECT_EQ(session.DigestAt(e), 0u) << "epoch " << e;
    } else {
      EXPECT_EQ(session.DigestAt(e), published[e]) << "epoch " << e;
    }
  }
  EXPECT_EQ(session.DigestAt(last + 1), 0u);
}

}  // namespace
}  // namespace service
}  // namespace partminer
