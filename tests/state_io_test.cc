#include "core/state_io.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/inc_part_miner.h"
#include "datagen/generator.h"
#include "datagen/update_generator.h"
#include "miner/gspan.h"

namespace partminer {
namespace {

void ExpectSameResults(const PatternSet& expected, const PatternSet& actual,
                       const std::string& what) {
  EXPECT_EQ(expected.SortedCodeStrings(), actual.SortedCodeStrings()) << what;
  for (const PatternInfo& p : expected.patterns()) {
    const PatternInfo* q = actual.Find(p.code);
    ASSERT_NE(q, nullptr) << what;
    EXPECT_EQ(p.support, q->support) << what;
    EXPECT_EQ(p.tids, q->tids) << what;
  }
}

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

TEST(StateIoTest, RoundTripPreservesVerifiedResult) {
  GraphDatabase db = MakeDatabase(5);
  PartMinerOptions options;
  options.min_support_count = 4;
  options.partition.k = 3;
  PartMiner miner(options);
  const PartMinerResult original = miner.Mine(db);

  std::stringstream buffer;
  ASSERT_TRUE(SaveMinerState(miner, buffer).ok());

  PartMiner restored(options);
  ASSERT_TRUE(LoadMinerState(buffer, &restored).ok());
  EXPECT_TRUE(restored.mined());
  EXPECT_EQ(restored.root_support(), 4);
  ExpectSameResults(original.patterns, restored.patterns(), "round trip");
}

TEST(StateIoTest, RestoredMinerContinuesIncrementally) {
  // The whole point: a restarted process resumes incremental maintenance
  // from the persisted state with exact results.
  GraphDatabase db = MakeDatabase(9);
  PartMinerOptions options;
  options.min_support_count = 4;
  options.partition.k = 4;
  PartMiner miner(options);
  miner.Mine(db);

  std::stringstream buffer;
  ASSERT_TRUE(SaveMinerState(miner, buffer).ok());
  PartMiner restored(options);
  ASSERT_TRUE(LoadMinerState(buffer, &restored).ok());

  UpdateOptions upd;
  upd.fraction_graphs = 0.3;
  upd.seed = 42;
  const UpdateLog log = ApplyUpdates(&db, 5, upd);

  IncPartMiner inc;
  const IncPartMinerResult result = inc.Update(&restored, db, log);

  GSpanMiner gspan;
  MinerOptions full;
  full.min_support = 4;
  ExpectSameResults(gspan.Mine(db, full), result.patterns,
                    "incremental after restore");
}

TEST(StateIoTest, LazyFrontierSavesCompactedAndResumesExactly) {
  // Three delta rounds leave the frontier with pending strips and at least
  // one cut; the saved state holds the compacted frontier, and both the
  // restored miner and the original keep matching gSpan for three more.
  GraphDatabase db = MakeDatabase(29);
  PartMinerOptions options;
  options.min_support_count = 4;
  options.partition.k = 2;
  options.inc_delta_sweep_max_fraction = 1.0;  // Delta path, no compaction.
  PartMiner miner(options);
  miner.Mine(db);

  GSpanMiner gspan;
  MinerOptions full;
  full.min_support = 4;
  IncPartMiner inc;
  auto round = [&](PartMiner* state, GraphDatabase* graphs, int r) {
    UpdateOptions upd;
    upd.fraction_graphs = 0.3;
    upd.kinds = {UpdateKind::kRelabel};
    upd.seed = 700 + r;
    const UpdateLog log = ApplyUpdates(graphs, 5, upd);
    const IncPartMinerResult result = inc.Update(state, *graphs, log);
    ExpectSameResults(gspan.Mine(*graphs, full), result.patterns,
                      "round " + std::to_string(r));
  };
  for (int r = 0; r < 3; ++r) round(&miner, &db, r);
  const Frontier& lazy = miner.root_frontier().map;
  ASSERT_TRUE(miner.root_frontier().valid);
  ASSERT_FALSE(lazy.cuts().empty());
  ASSERT_GT(lazy.PendingGraphs(), 0);

  std::stringstream buffer;
  ASSERT_TRUE(SaveMinerState(miner, buffer).ok());
  EXPECT_EQ(buffer.str().rfind("partminer-state 4\n", 0), 0u);
  PartMiner restored(options);
  ASSERT_TRUE(LoadMinerState(buffer, &restored).ok());
  Frontier compacted = lazy;
  compacted.Compact();
  EXPECT_EQ(restored.root_frontier().map.size(), compacted.size());
  EXPECT_TRUE(restored.root_frontier().map == lazy);
  EXPECT_TRUE(restored.root_frontier().map.cuts().empty());

  GraphDatabase restored_db = db;
  for (int r = 3; r < 6; ++r) {
    round(&restored, &restored_db, r);
    round(&miner, &db, r);
  }
}

TEST(StateIoTest, FileRoundTrip) {
  GraphDatabase db = MakeDatabase(11);
  PartMinerOptions options;
  options.min_support_count = 3;
  options.partition.k = 2;
  PartMiner miner(options);
  miner.Mine(db);

  const std::string path =
      "/tmp/partminer_state_" + std::to_string(::getpid()) + ".state";
  ASSERT_TRUE(SaveMinerStateFile(miner, path).ok());
  PartMiner restored(options);
  ASSERT_TRUE(LoadMinerStateFile(path, &restored).ok());
  ExpectSameResults(miner.patterns(), restored.patterns(), "file round trip");
  ::unlink(path.c_str());
}

/// Re-frames `payload` with a valid integrity footer, as SaveMinerState
/// would: `footer <payload_bytes> <fnv1a_hex>`.
std::string WithFooter(const std::string& payload) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : payload) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  std::ostringstream out;
  out << payload << "footer " << payload.size() << ' ' << std::hex << hash
      << '\n';
  return out.str();
}

TEST(StateIoTest, RejectsUnminedAndMismatchedStates) {
  PartMinerOptions options;
  options.partition.k = 2;
  PartMiner unmined(options);
  std::stringstream buffer;
  EXPECT_EQ(SaveMinerState(unmined, buffer).code(),
            Status::Code::kInvalidArgument);

  // The state holds no partition, so one saved under k=3 restores into a
  // miner configured with k=2.
  GraphDatabase db = MakeDatabase(13);
  PartMinerOptions k3 = options;
  k3.min_support_count = 4;
  k3.partition.k = 3;
  PartMiner miner(k3);
  miner.Mine(db);
  std::stringstream saved;
  ASSERT_TRUE(SaveMinerState(miner, saved).ok());
  const std::string bytes = saved.str();
  PartMiner other_k(options);
  ASSERT_TRUE(LoadMinerState(saved, &other_k).ok());
  ExpectSameResults(miner.patterns(), other_k.patterns(), "other k");

  // A well-framed state of another format version is refused.
  const std::string payload = bytes.substr(0, bytes.rfind("footer "));
  ASSERT_EQ(payload.rfind("partminer-state 4\n", 0), 0u);
  std::stringstream future(
      WithFooter("partminer-state 5" + payload.substr(17)));
  PartMiner wrong_version(options);
  const Status status = LoadMinerState(future, &wrong_version);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument)
      << status.ToString();
  EXPECT_FALSE(wrong_version.mined());  // Failed load leaves it untouched.
}

TEST(StateIoTest, RejectsCorruptInput) {
  PartMinerOptions options;
  PartMiner miner(options);
  for (const char* text :
       {"", "garbage 1", "partminer-state 99\n",
        "partminer-state 1\nroot_support x\n"}) {
    std::stringstream in(text);
    EXPECT_FALSE(LoadMinerState(in, &miner).ok()) << "'" << text << "'";
    EXPECT_FALSE(miner.mined());
  }
}

/// Saves a small miner state and returns the serialized bytes.
std::string SavedStateBytes() {
  GraphDatabase db = MakeDatabase(17);
  PartMinerOptions options;
  options.min_support_count = 4;
  options.partition.k = 2;
  PartMiner miner(options);
  miner.Mine(db);
  std::stringstream buffer;
  EXPECT_TRUE(SaveMinerState(miner, buffer).ok());
  return buffer.str();
}

TEST(StateIoTest, TruncatedFileIsRejectedWithDescriptiveStatus) {
  const std::string bytes = SavedStateBytes();
  ASSERT_GT(bytes.size(), 64u);
  PartMinerOptions options;
  options.partition.k = 2;

  // Every truncation point that loses data — cutting mid-footer, cutting
  // the footer off entirely, cutting mid-payload — must fail cleanly and
  // leave the miner untouched. (Losing only the final newline loses no
  // data; the footer still validates and the load is allowed to succeed.)
  for (size_t cut : {bytes.size() - 2, bytes.size() - 8, bytes.size() / 2,
                     bytes.size() / 4, size_t{64}, size_t{1}}) {
    PartMiner miner(options);
    std::stringstream in(bytes.substr(0, cut));
    const Status status = LoadMinerState(in, &miner);
    EXPECT_EQ(status.code(), Status::Code::kCorruption) << "cut=" << cut;
    EXPECT_FALSE(status.message().empty()) << "cut=" << cut;
    EXPECT_FALSE(miner.mined()) << "cut=" << cut;
  }
}

TEST(StateIoTest, BitFlippedFileIsRejected) {
  const std::string bytes = SavedStateBytes();
  PartMinerOptions options;
  options.partition.k = 2;

  // Flip one bit at a spread of positions across the payload. Loads must
  // either fail (almost always a checksum mismatch) — never restore state
  // that differs from what was saved.
  for (size_t pos = 0; pos < bytes.size(); pos += bytes.size() / 23 + 1) {
    std::string corrupted = bytes;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x10);
    PartMiner miner(options);
    std::stringstream in(corrupted);
    const Status status = LoadMinerState(in, &miner);
    EXPECT_FALSE(status.ok()) << "pos=" << pos;
    EXPECT_FALSE(miner.mined()) << "pos=" << pos;
  }
}

TEST(StateIoTest, ChecksumFailureNamesTheProblem) {
  std::string bytes = SavedStateBytes();
  // Flip a byte in the middle of the payload: the footer no longer matches.
  bytes[bytes.size() / 2] ^= 0x01;
  PartMiner miner{PartMinerOptions{}};
  std::stringstream in(bytes);
  const Status status = LoadMinerState(in, &miner);
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
  ASSERT_TRUE(miner.root_frontier().valid);

  std::stringstream buffer;
  ASSERT_TRUE(SaveMinerState(miner, buffer).ok());
  std::vector<std::string> sections;
  std::string line;
  while (std::getline(buffer, line)) {
    const std::string tag = line.substr(0, line.find(' '));
    if (!tag.empty() && !std::isdigit(static_cast<unsigned char>(tag[0]))) {
      sections.push_back(tag);
    }
  }
  EXPECT_EQ(sections,
            (std::vector<std::string>{"partminer-state", "root_support",
                                      "patterns", "frontier", "footer"}));
  buffer.clear();
  buffer.seekg(0);
  EXPECT_EQ(buffer.str().rfind("partminer-state 4\n", 0), 0u);

  PartMiner restored(options);
  ASSERT_TRUE(LoadMinerState(buffer, &restored).ok());
  ExpectSameResults(miner.patterns(), restored.patterns(), "root set");
  EXPECT_EQ(miner.root_frontier().valid, restored.root_frontier().valid);
  EXPECT_TRUE(miner.root_frontier().map == restored.root_frontier().map);
}

/// Loads the checked-in state file of an older format `version` into a
/// mined miner and expects a refusal that leaves the miner as it was.
void ExpectOlderVersionRefused(int version) {
  GraphDatabase db = MakeDatabase(23);
  PartMinerOptions options;
  options.min_support_count = 4;
  PartMiner miner(options);
  miner.Mine(db);
  const PatternSet patterns = miner.patterns();
  const NodeFrontier frontier = miner.root_frontier();

  const std::string v = std::to_string(version);
  const Status status = LoadMinerStateFile(
      std::string(PARTMINER_SOURCE_DIR) + "/data/corpus/state_v" + v +
          ".state",
      &miner);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument)
      << status.ToString();
  EXPECT_NE(status.message().find("version " + v), std::string::npos)
      << status.ToString();
  EXPECT_TRUE(miner.mined());
  EXPECT_EQ(miner.root_support(), 4);
  ExpectSameResults(patterns, miner.patterns(), "after refused load");
  EXPECT_TRUE(frontier.map == miner.root_frontier().map);
}

TEST(StateIoTest, VersionTwoFileIsRefusedAndMinerLeftUntouched) {
  ExpectOlderVersionRefused(2);
}

TEST(StateIoTest, VersionThreeFileIsRefusedAndMinerLeftUntouched) {
  ExpectOlderVersionRefused(3);
}

TEST(StateIoTest, LegacyV1FileWithoutFooterIsRejected) {
  // A well-formed v1 header with no footer must be refused up front, not
  // half-parsed.
  PartMiner miner{PartMinerOptions{}};
  std::stringstream in(
      "partminer-state 1\nroot_support 2\nk 2\ngraphs 0\nnodes 0\n"
      "verified\npatterns 0\n");
  const Status status = LoadMinerState(in, &miner);
  EXPECT_EQ(status.code(), Status::Code::kCorruption);
  EXPECT_NE(status.message().find("footer"), std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace partminer
