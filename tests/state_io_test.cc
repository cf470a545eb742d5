// Miner-state persistence. A snapshot is the database plus its root support
// and a checksum in one trailing comment line; a restore checks the line,
// reads the database and re-mines it. SaveMinerState only writes (its one
// reader measures the length), so its cases check the text itself.

#include "core/state_io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/inc_part_miner.h"
#include "datagen/edit_stream.h"
#include "datagen/generator.h"
#include "datagen/update_generator.h"
#include "graph/graph_io.h"
#include "miner/gspan.h"
#include "obs/metrics.h"
#include "service/session.h"
#include "tests/test_util.h"

namespace partminer {
namespace {

using testutil::ExpectSamePatterns;

using service::MinerSession;
using service::SessionOptions;
using service::SnapshotResult;

GraphDatabase MakeDatabase(uint64_t seed) {
  GeneratorParams params;
  params.num_graphs = 16;
  params.avg_edges = 10;
  params.num_labels = 5;
  params.num_kernels = 8;
  params.seed = seed;
  GraphDatabase db = GenerateDatabase(params);
  AssignUpdateHotspots(&db, 0.2, seed + 1);
  return db;
}

SessionOptions SupportOptions(int support) {
  SessionOptions options;
  options.miner.min_support_count = support;
  return options;
}

/// A snapshot prefix; Snapshot() writes `<prefix>.db.lg`.
std::string TempPrefix(const std::string& tag) {
  return "/tmp/partminer_state_io_" + tag + "_" +
         std::to_string(::getpid());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream(path) << contents;
}

/// Snapshots a session mined at support 4 and returns the file's bytes.
std::string SnapshotBytes(MinerSession* session) {
  EXPECT_TRUE(session->Init(MakeDatabase(17)).ok());
  SnapshotResult snapshot;
  EXPECT_TRUE(session->Snapshot(TempPrefix("bytes"), &snapshot).ok());
  const std::string bytes = ReadFile(snapshot.db_path);
  ::unlink(snapshot.db_path.c_str());
  return bytes;
}

/// Restores `contents` written to a file and expects a clean refusal that
/// leaves the session unready.
Status ExpectRefused(const std::string& contents, const std::string& what) {
  const std::string path = TempPrefix("refused") + ".db.lg";
  WriteFile(path, contents);
  MinerSession session(SupportOptions(4));
  const Status status = session.InitFromSnapshot(path);
  EXPECT_FALSE(status.ok()) << what;
  EXPECT_FALSE(status.message().empty()) << what;
  EXPECT_FALSE(session.ready()) << what;
  ::unlink(path.c_str());
  return status;
}

TEST(StateIoTest, RoundTripPreservesVerifiedResult) {
  MinerSession session(SupportOptions(4));
  ASSERT_TRUE(session.Init(MakeDatabase(5)).ok());
  const std::string prefix = TempPrefix("round_trip");
  SnapshotResult snapshot;
  ASSERT_TRUE(session.Snapshot(prefix, &snapshot).ok());

  MinerSession restored(SupportOptions(4));
  ASSERT_TRUE(restored.InitFromSnapshot(snapshot.db_path).ok());
  EXPECT_TRUE(restored.ready());
  EXPECT_EQ(restored.resident_support(), 4);
  EXPECT_EQ(restored.digest(), session.digest());
  ExpectSamePatterns(session.VerifiedPatterns(), restored.VerifiedPatterns(),
                     "round trip");
  ::unlink(snapshot.db_path.c_str());
}

TEST(StateIoTest, RestoredMinerContinuesIncrementally) {
  // A restarted process resumes incremental maintenance from the snapshot
  // with exact results.
  const GraphDatabase db = MakeDatabase(9);
  MinerSession session(SupportOptions(4));
  ASSERT_TRUE(session.Init(db).ok());
  const std::string prefix = TempPrefix("continue");
  SnapshotResult snapshot;
  ASSERT_TRUE(session.Snapshot(prefix, &snapshot).ok());
  MinerSession restored(SupportOptions(4));
  ASSERT_TRUE(restored.InitFromSnapshot(snapshot.db_path).ok());

  EditStreamOptions stream;
  stream.seed = 42;
  stream.requests = 3;
  stream.update_fraction = 1.0;
  stream.edits_per_update = 5;
  stream.num_labels = 5;
  stream.resident_support = 4;
  GraphDatabase replayed = db;
  GSpanMiner gspan;
  MinerOptions full;
  full.min_support = 4;
  for (const StreamItem& item : GenerateEditStream(db, stream)) {
    service::BatchResult result;
    ASSERT_TRUE(restored.ApplyBatch(item.edits, &result).ok());
    UpdateLog log;
    ApplyEditBatch(&replayed, item.edits, &log);
    ExpectSamePatterns(gspan.Mine(replayed, full), restored.VerifiedPatterns(),
                       "incremental after restore");
  }
  ::unlink(snapshot.db_path.c_str());
}

TEST(StateIoTest, LazyFrontierSavesCompactedAndResumesExactly) {
  // Three delta rounds leave the frontier with pending strips and at least
  // one cut; they update few enough graphs that none compacts.
  // SaveMinerState writes it exactly as a compacted copy writes, and
  // writing does not disturb the miner: it keeps matching gSpan for three
  // more rounds.
  GraphDatabase db = MakeDatabase(29);
  PartMinerOptions options;
  options.min_support_count = 4;
  options.partition.k = 2;
  PartMiner miner(options);
  miner.Mine(db);

  GSpanMiner gspan;
  MinerOptions full;
  full.min_support = 4;
  IncPartMiner inc;
  auto round = [&](int r) {
    UpdateOptions upd;
    upd.fraction_graphs = 0.15;
    upd.updates_per_graph = 3;
    upd.kinds = {UpdateKind::kRelabel};
    upd.seed = 700 + r;
    const UpdateLog log = ApplyUpdates(&db, 5, upd);
    const IncPartMinerResult result = inc.Update(&miner, db, log);
    ExpectSamePatterns(gspan.Mine(db, full), result.patterns,
                       "round " + std::to_string(r));
  };
  obs::Counter* compactions = obs::MetricRegistry::Global().GetCounter(
      "partminer.update.frontier_compactions");
  const int64_t compactions_before = compactions->value();
  for (int r = 0; r < 3; ++r) round(r);
  ASSERT_EQ(compactions->value(), compactions_before);
  const Frontier& lazy = miner.root_frontier().map;
  ASSERT_FALSE(lazy.Cuts().empty());
  ASSERT_GT(lazy.PendingGraphs(), 0);

  std::stringstream buffer;
  ASSERT_TRUE(SaveMinerState(miner, buffer).ok());
  PartMiner compacted = miner;
  compacted.mutable_root_frontier().map.Compact();
  ASSERT_TRUE(compacted.root_frontier().map.Cuts().empty());
  std::stringstream compacted_buffer;
  ASSERT_TRUE(SaveMinerState(compacted, compacted_buffer).ok());
  EXPECT_EQ(buffer.str(), compacted_buffer.str());
  EXPECT_NE(buffer.str().find("\nfrontier " +
                              std::to_string(compacted.root_frontier()
                                                 .map.size()) +
                              "\n"),
            std::string::npos);

  for (int r = 3; r < 6; ++r) round(r);
}

TEST(StateIoTest, FileRoundTrip) {
  // Every .lg reader reads a snapshot: the footer is a comment line.
  const GraphDatabase db = MakeDatabase(11);
  MinerSession session(SupportOptions(3));
  ASSERT_TRUE(session.Init(db).ok());
  SnapshotResult snapshot;
  ASSERT_TRUE(session.Snapshot(TempPrefix("file"), &snapshot).ok());

  GraphDatabase read;
  ASSERT_TRUE(ReadGraphDatabaseFile(snapshot.db_path, &read).ok());
  std::ostringstream expected, actual;
  ASSERT_TRUE(WriteGraphDatabase(db, expected).ok());
  ASSERT_TRUE(WriteGraphDatabase(read, actual).ok());
  EXPECT_EQ(read.size(), db.size());
  EXPECT_EQ(actual.str(), expected.str());
  const std::string bytes = ReadFile(snapshot.db_path);
  EXPECT_EQ(bytes.rfind(expected.str(), 0), 0u);
  EXPECT_EQ(bytes.substr(expected.str().size()).rfind(
                "# partminer-snapshot support=3 bytes=" +
                    std::to_string(expected.str().size()) + " fnv=",
                0),
            0u)
      << bytes.substr(expected.str().size());
  ::unlink(snapshot.db_path.c_str());
}

TEST(StateIoTest, RejectsUnminedAndMismatchedStates) {
  PartMinerOptions options;
  PartMiner unmined(options);
  std::stringstream buffer;
  EXPECT_EQ(SaveMinerState(unmined, buffer).code(),
            Status::Code::kInvalidArgument);
  MinerSession unready(SupportOptions(4));
  SnapshotResult snapshot;
  EXPECT_EQ(unready.Snapshot(TempPrefix("unready"), &snapshot).code(),
            Status::Code::kInvalidArgument);

  // A session configured at another support restores at the snapshot's
  // support, with its digest: the saved support wins.
  MinerSession session(SupportOptions(4));
  ASSERT_TRUE(session.Init(MakeDatabase(13)).ok());
  ASSERT_TRUE(session.Snapshot(TempPrefix("support"), &snapshot).ok());
  for (const int configured : {2, 7}) {
    MinerSession other(SupportOptions(configured));
    ASSERT_TRUE(other.InitFromSnapshot(snapshot.db_path).ok());
    EXPECT_EQ(other.resident_support(), 4) << configured;
    EXPECT_EQ(other.digest(), session.digest()) << configured;
  }
  SessionOptions fraction;
  fraction.miner.min_support_fraction = 0.9;
  MinerSession by_fraction(fraction);
  ASSERT_TRUE(by_fraction.InitFromSnapshot(snapshot.db_path).ok());
  EXPECT_EQ(by_fraction.resident_support(), 4);
  EXPECT_EQ(by_fraction.digest(), session.digest());
  ::unlink(snapshot.db_path.c_str());
}

TEST(StateIoTest, RejectsCorruptInput) {
  // A plain database, an empty file, garbage and footers that do not parse
  // are all refused before anything is mined.
  std::ostringstream plain;
  ASSERT_TRUE(WriteGraphDatabase(MakeDatabase(3), plain).ok());
  for (const std::string& text :
       {std::string(), std::string("garbage 1\n"), plain.str(),
        plain.str() + "# partminer-snapshot support=0 bytes=" +
            std::to_string(plain.str().size()) + " fnv=0\n",
        plain.str() + "# partminer-snapshot support=x\n",
        std::string("# partminer-snapshot support=4 bytes=0 fnv=0\n")}) {
    const Status status = ExpectRefused(text, "'" + text.substr(0, 40) + "'");
    EXPECT_EQ(status.code(), Status::Code::kCorruption) << status.ToString();
  }
  MinerSession missing(SupportOptions(4));
  const std::string absent = TempPrefix("missing") + ".db.lg";
  EXPECT_EQ(missing.InitFromSnapshot(absent).code(), Status::Code::kIoError);
  EXPECT_FALSE(missing.ready());
}

TEST(StateIoTest, TruncatedFileIsRejectedWithDescriptiveStatus) {
  MinerSession saved(SupportOptions(4));
  const std::string bytes = SnapshotBytes(&saved);
  ASSERT_GT(bytes.size(), 64u);

  // Every truncation that loses data must be refused: mid-footer, the
  // footer line cut off whole, mid-database, and at line boundaries, where
  // what is left parses as a valid smaller database. (Losing only the
  // final newline loses no data; such a file may restore.)
  const size_t footer = bytes.rfind('\n', bytes.size() - 2) + 1;
  const size_t mid_line = bytes.find('\n', bytes.size() / 2) + 1;
  for (const size_t cut :
       {bytes.size() - 2, bytes.size() - 8, footer, footer - 1, mid_line,
        bytes.size() / 2, bytes.size() / 4, size_t{64}, size_t{1}}) {
    const Status status = ExpectRefused(bytes.substr(0, cut),
                                        "cut=" + std::to_string(cut));
    EXPECT_EQ(status.code(), Status::Code::kCorruption) << "cut=" << cut;
  }
}

TEST(StateIoTest, BitFlippedFileIsRejected) {
  MinerSession saved(SupportOptions(4));
  const std::string bytes = SnapshotBytes(&saved);

  // Flip one bit at a spread of positions across the database and the
  // footer. Every restore must fail; none may come up with another state.
  for (size_t pos = 0; pos + 1 < bytes.size();
       pos += bytes.size() / 23 + 1) {
    std::string corrupted = bytes;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x10);
    ExpectRefused(corrupted, "pos=" + std::to_string(pos));
  }
  const size_t support = bytes.rfind("support=4") + 8;
  std::string other_support = bytes;
  other_support[support] = '5';
  ExpectRefused(other_support, "support digit");
}

TEST(StateIoTest, ChecksumFailureNamesTheProblem) {
  MinerSession saved(SupportOptions(4));
  std::string bytes = SnapshotBytes(&saved);
  // Flip a byte in the middle of the database: the footer no longer
  // matches.
  bytes[bytes.size() / 2] ^= 0x01;
  const Status status = ExpectRefused(bytes, "mid-file flip");
  EXPECT_EQ(status.code(), Status::Code::kCorruption);
  EXPECT_NE(status.message().find("checksum mismatch"), std::string::npos)
      << status.ToString();
}

TEST(StateIoTest, StateHoldsOnlyRootSetAndRootFrontier) {
  GraphDatabase db = MakeDatabase(19);
  PartMinerOptions options;
  options.min_support_count = 4;
  PartMiner miner(options);
  miner.Mine(db);

  std::stringstream buffer;
  ASSERT_TRUE(SaveMinerState(miner, buffer).ok());
  std::vector<std::string> sections;
  std::string line;
  int pattern_lines = 0;
  while (std::getline(buffer, line)) {
    const std::string tag = line.substr(0, line.find(' '));
    if (!tag.empty() && !std::isdigit(static_cast<unsigned char>(tag[0]))) {
      sections.push_back(tag);
    } else if (sections.back() == "patterns") {
      ++pattern_lines;
    }
  }
  EXPECT_EQ(sections,
            (std::vector<std::string>{"partminer-state", "root_support",
                                      "patterns", "frontier"}));
  EXPECT_EQ(pattern_lines, miner.patterns().size());
  EXPECT_EQ(buffer.str().rfind("partminer-state 5\nroot_support 4\n", 0), 0u);
}

}  // namespace
}  // namespace partminer
