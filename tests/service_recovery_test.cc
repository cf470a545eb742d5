// Crash/restart recovery for the resident mining service: a session that
// applies updates, snapshots, dies, and is restored from the snapshot must
// continue to a pattern set bit-identical to an uninterrupted session — and
// both must agree with a from-scratch re-mine of the final database.

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/random.h"
#include "core/part_miner.h"
#include "datagen/edit_stream.h"
#include "graph/graph_io.h"
#include "gtest/gtest.h"
#include "miner/gspan.h"
#include "service/session.h"
#include "storage/fault_injector.h"
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

std::string TempPrefix(const char* tag) {
  return "/tmp/pm_service_recovery_" + std::string(tag) + "_" +
         std::to_string(::getpid());
}

void RemoveSnapshot(const std::string& prefix) {
  std::remove((prefix + ".db.lg").c_str());
}

/// Exact pattern-set equality: codes, supports, and TID sets.
void ExpectSamePatterns(const PatternSet& expected, const PatternSet& actual,
                        const char* what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (const PatternInfo& p : expected.patterns()) {
    const PatternInfo* q = actual.Find(p.code);
    ASSERT_NE(q, nullptr) << what << ": missing " << p.code.ToString();
    EXPECT_EQ(q->support, p.support) << what << ": " << p.code.ToString();
    EXPECT_TRUE(q->tids == p.tids) << what << ": " << p.code.ToString();
  }
}

class ServiceRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(20260808);
    db_ = testutil::RandomDatabase(&rng, /*graphs=*/24, /*vertices=*/8,
                                   /*extra_edges=*/3, /*vertex_labels=*/4,
                                   /*edge_labels=*/3);
    EditStreamOptions stream;
    stream.seed = 7;
    stream.requests = 4;
    stream.update_fraction = 1.0;
    stream.edits_per_update = 5;
    stream.num_labels = 4;
    stream.resident_support = 3;
    batches_.clear();
    for (const StreamItem& item : GenerateEditStream(db_, stream)) {
      batches_.push_back(item.edits);
    }
    ASSERT_EQ(batches_.size(), 4u);
  }

  GraphDatabase db_;
  std::vector<std::vector<EditOp>> batches_;
};

TEST_F(ServiceRecoveryTest, RestoredSessionMatchesUninterruptedRun) {
  // Uninterrupted reference: all four batches in one session.
  MinerSession uninterrupted(MakeOptions());
  ASSERT_TRUE(uninterrupted.Init(db_).ok());
  for (const auto& batch : batches_) {
    BatchResult result;
    ASSERT_TRUE(uninterrupted.ApplyBatch(batch, &result).ok());
    EXPECT_EQ(result.rejected, 0) << result.first_rejection;
  }
  const uint64_t expected_digest = uninterrupted.digest();

  // Interrupted run: two batches, snapshot, session destroyed ("crash"),
  // restore, remaining two batches.
  const std::string prefix = TempPrefix("mid");
  {
    MinerSession doomed(MakeOptions());
    ASSERT_TRUE(doomed.Init(db_).ok());
    BatchResult result;
    ASSERT_TRUE(doomed.ApplyBatch(batches_[0], &result).ok());
    ASSERT_TRUE(doomed.ApplyBatch(batches_[1], &result).ok());
    SnapshotResult snapshot;
    ASSERT_TRUE(doomed.Snapshot(prefix, &snapshot).ok());
    EXPECT_EQ(snapshot.epoch, doomed.epoch());
  }  // ~MinerSession: the crash.

  MinerSession restored(MakeOptions());
  ASSERT_TRUE(restored.InitFromSnapshot(prefix + ".db.lg").ok());
  // Epochs are session-local and restart at zero; the digest is what
  // carries identity across the restart.
  EXPECT_EQ(restored.epoch(), 0u);
  for (size_t i = 2; i < batches_.size(); ++i) {
    BatchResult result;
    ASSERT_TRUE(restored.ApplyBatch(batches_[i], &result).ok());
    EXPECT_EQ(result.rejected, 0) << result.first_rejection;
  }

  EXPECT_EQ(restored.digest(), expected_digest);
  ExpectSamePatterns(uninterrupted.VerifiedPatterns(),
                     restored.VerifiedPatterns(), "restored vs uninterrupted");

  // Both must equal a from-scratch mine of the final database (the
  // incremental path and the restart path may not drift from the oracle).
  GraphDatabase replayed = db_;
  for (const auto& batch : batches_) {
    UpdateLog log;
    const EditBatchOutcome outcome = ApplyEditBatch(&replayed, batch, &log);
    ASSERT_EQ(outcome.rejected, 0) << outcome.first_rejection;
  }
  PartMiner oracle(MakeOptions().miner);
  oracle.Mine(replayed);
  ExpectSamePatterns(oracle.patterns(), restored.VerifiedPatterns(),
                     "restored vs from-scratch oracle");
  EXPECT_EQ(PatternSetDigest(oracle.patterns()), expected_digest);
  RemoveSnapshot(prefix);
}

TEST_F(ServiceRecoveryTest, SnapshotAfterEveryBatchRestoresEveryEpoch) {
  // Restoring any intermediate snapshot and replaying the tail converges to
  // the same final digest, no matter where the "crash" landed.
  MinerSession reference(MakeOptions());
  ASSERT_TRUE(reference.Init(db_).ok());
  std::vector<std::string> prefixes;
  for (size_t i = 0; i < batches_.size(); ++i) {
    BatchResult result;
    ASSERT_TRUE(reference.ApplyBatch(batches_[i], &result).ok());
    const std::string prefix = TempPrefix(("e" + std::to_string(i)).c_str());
    SnapshotResult snapshot;
    ASSERT_TRUE(reference.Snapshot(prefix, &snapshot).ok());
    prefixes.push_back(prefix);
  }
  for (size_t crash = 0; crash < prefixes.size(); ++crash) {
    MinerSession restored(MakeOptions());
    ASSERT_TRUE(restored.InitFromSnapshot(prefixes[crash] + ".db.lg").ok());
    for (size_t i = crash + 1; i < batches_.size(); ++i) {
      BatchResult result;
      ASSERT_TRUE(restored.ApplyBatch(batches_[i], &result).ok());
    }
    EXPECT_EQ(restored.digest(), reference.digest())
        << "crash after batch " << crash;
  }
  for (const std::string& prefix : prefixes) RemoveSnapshot(prefix);
}

TEST_F(ServiceRecoveryTest, SnapshotWhileBatchesApplyRestoresItsEpoch) {
  // Snapshots race batch applies on another thread. Each must capture one
  // whole epoch: the database it restores digests to what the writer
  // recorded for the epoch the snapshot reports.
  EditStreamOptions stream;
  stream.seed = 11;
  stream.requests = 24;
  stream.update_fraction = 1.0;
  stream.edits_per_update = 5;
  stream.num_labels = 4;
  stream.resident_support = 3;
  std::vector<std::vector<EditOp>> batches;
  for (const StreamItem& item : GenerateEditStream(db_, stream)) {
    batches.push_back(item.edits);
  }

  MinerSession session(MakeOptions());
  ASSERT_TRUE(session.Init(db_).ok());
  std::thread writer([&] {
    for (const auto& batch : batches) {
      BatchResult result;
      EXPECT_TRUE(session.ApplyBatch(batch, &result).ok());
    }
  });
  constexpr int kSnapshots = 6;
  std::vector<std::string> prefixes;
  std::vector<SnapshotResult> snapshots(kSnapshots);
  for (int i = 0; i < kSnapshots; ++i) {
    prefixes.push_back(TempPrefix(("race" + std::to_string(i)).c_str()));
    EXPECT_TRUE(session.Snapshot(prefixes[i], &snapshots[i]).ok());
  }
  writer.join();

  for (int i = 0; i < kSnapshots; ++i) {
    MinerSession restored(MakeOptions());
    ASSERT_TRUE(restored.InitFromSnapshot(snapshots[i].db_path).ok());
    EXPECT_EQ(restored.digest(), session.DigestAt(snapshots[i].epoch))
        << "snapshot " << i << " at epoch " << snapshots[i].epoch;
    RemoveSnapshot(prefixes[i]);
  }
}

TEST_F(ServiceRecoveryTest, FailedRestoreLeavesSessionUnready) {
  const std::string prefix = TempPrefix("bad");
  {
    MinerSession session(MakeOptions());
    ASSERT_TRUE(session.Init(db_).ok());
    SnapshotResult snapshot;
    ASSERT_TRUE(session.Snapshot(prefix, &snapshot).ok());
  }
  // Truncate the snapshot just past a line in its middle: what is left
  // parses as a valid smaller database, so only the footer check can refuse
  // it, and the half-restored session must refuse to serve.
  {
    std::ifstream in(prefix + ".db.lg");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string bytes = buffer.str();
    const size_t cut = bytes.find('\n', bytes.size() / 2) + 1;
    ASSERT_LT(cut, bytes.size());
    std::ofstream(prefix + ".db.lg") << bytes.substr(0, cut);
  }
  MinerSession broken(MakeOptions());
  const Status restore = broken.InitFromSnapshot(prefix + ".db.lg");
  EXPECT_FALSE(restore.ok());
  EXPECT_FALSE(broken.ready());
  QueryReply reply;
  EXPECT_FALSE(broken.Query({}, &reply).ok());
  RemoveSnapshot(prefix);
}

TEST_F(ServiceRecoveryTest, InjectedReadFaultFailsRestoreThenRetryWorks) {
  const std::string prefix = TempPrefix("fault");
  {
    MinerSession session(MakeOptions());
    ASSERT_TRUE(session.Init(db_).ok());
    SnapshotResult snapshot;
    ASSERT_TRUE(session.Snapshot(prefix, &snapshot).ok());
  }
  FaultInjector injector(1);
  injector.FailOnce(FaultInjector::Op::kRead, 0);
  MinerSession session(MakeOptions());
  session.set_fault_injector(&injector);
  EXPECT_FALSE(session.InitFromSnapshot(prefix + ".db.lg").ok());
  EXPECT_FALSE(session.ready());
  // The scripted fault is consumed; the retry restores the same state.
  EXPECT_TRUE(session.InitFromSnapshot(prefix + ".db.lg").ok());
  EXPECT_TRUE(session.ready());
  RemoveSnapshot(prefix);
}

TEST_F(ServiceRecoveryTest, FailedSecondSnapshotRestoresOneWholeEpoch) {
  // A second snapshot to the same prefix fails on its first or its second
  // write consultation. Whatever is left on disk must restore to one whole
  // epoch: the resident patterns are exactly what gSpan mines from the
  // restored database, and the digest is that of the first snapshot's
  // epoch or, if the write got through, the second's. A failure between
  // two files of one snapshot would leave a new database beside a stale
  // miner state, and restore it without complaint.
  for (const int failing_write : {0, 1}) {
    SCOPED_TRACE("failing write " + std::to_string(failing_write));
    const std::string prefix = TempPrefix("torn");
    MinerSession session(MakeOptions());
    ASSERT_TRUE(session.Init(db_).ok());
    BatchResult result;
    ASSERT_TRUE(session.ApplyBatch(batches_[0], &result).ok());
    SnapshotResult first;
    ASSERT_TRUE(session.Snapshot(prefix, &first).ok());
    for (size_t i = 1; i < batches_.size(); ++i) {
      ASSERT_TRUE(session.ApplyBatch(batches_[i], &result).ok());
    }
    FaultInjector injector(1);
    injector.FailOnce(FaultInjector::Op::kWrite, failing_write);
    session.set_fault_injector(&injector);
    SnapshotResult second;
    const bool second_written = session.Snapshot(prefix, &second).ok();
    session.set_fault_injector(nullptr);

    MinerSession restored(MakeOptions());
    ASSERT_TRUE(restored.InitFromSnapshot(prefix + ".db.lg").ok());
    GraphDatabase restored_db;
    ASSERT_TRUE(ReadGraphDatabaseFile(prefix + ".db.lg", &restored_db).ok());
    GSpanMiner gspan;
    MinerOptions oracle;
    oracle.min_support = restored.resident_support();
    ExpectSamePatterns(gspan.Mine(restored_db, oracle),
                       restored.VerifiedPatterns(),
                       "restored vs gSpan of the restored database");
    EXPECT_EQ(restored.digest(),
              session.DigestAt(second_written ? second.epoch : first.epoch));
    RemoveSnapshot(prefix);
  }
}

}  // namespace
}  // namespace service
}  // namespace partminer
