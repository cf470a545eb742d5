#include "core/state_io.h"

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fnv.h"

namespace partminer {

namespace {

constexpr const char* kMagic = "partminer-state";
// Version 2 appended an integrity footer (`footer <payload_bytes>
// <fnv1a_hex>`) so truncation and bit flips are detected before any of the
// payload is trusted. Version 3 held the partition, the root pattern set
// and the root frontier. Version 4 drops the partition, which nothing
// reads, and each pattern's always-set exactness flag: it holds the root
// support, the root pattern set and the root frontier. Earlier versions
// are rejected.
constexpr int kVersion = 4;
constexpr const char* kFooterTag = "footer";

void WriteCode(const DfsCode& code, std::ostream& out) {
  out << code.size();
  for (const DfsEdge& e : code.edges()) {
    out << ' ' << e.from << ' ' << e.to << ' ' << e.from_label << ' '
        << e.edge_label << ' ' << e.to_label;
  }
}

// TidSets round-trip through their ascending vector form, so the text does
// not depend on which form a set is stored in.
void WriteTids(const TidSet& tids, std::ostream& out) {
  const std::vector<int> v = tids.ToVector();
  out << v.size();
  for (const int t : v) out << ' ' << t;
}

void WritePatternSet(const PatternSet& set, std::ostream& out) {
  out << "patterns " << set.size() << '\n';
  for (const PatternInfo& p : set.patterns()) {
    WriteCode(p.code, out);
    out << ' ' << p.support << ' ';
    WriteTids(p.tids, out);
    out << '\n';
  }
}

// The frontier is written compacted: live entries with their current TIDs,
// so a lazily maintained frontier saves exactly as a compacted one would.
void WriteFrontier(const NodeFrontier& frontier, std::ostream& out) {
  size_t live = 0;
  frontier.map.ForEachLive([&live](const DfsCode&, const TidSet&) { ++live; });
  out << "frontier " << (frontier.valid ? 1 : 0) << ' ' << live << '\n';
  frontier.map.ForEachLive([&out](const DfsCode& code, const TidSet& tids) {
    WriteCode(code, out);
    out << ' ';
    WriteTids(tids, out);
    out << '\n';
  });
}

Status ReadCode(std::istream& in, DfsCode* code) {
  size_t edges = 0;
  if (!(in >> edges)) return Status::Corruption("bad code length");
  code->Clear();
  for (size_t i = 0; i < edges; ++i) {
    DfsEdge e;
    if (!(in >> e.from >> e.to >> e.from_label >> e.edge_label >>
          e.to_label)) {
      return Status::Corruption("bad code tuple");
    }
    code->Append(e);
  }
  return Status::Ok();
}

Status ReadTids(std::istream& in, TidSet* tids) {
  size_t count = 0;
  if (!(in >> count)) return Status::Corruption("bad tid count");
  tids->Clear();
  for (size_t i = 0; i < count; ++i) {
    int t = 0;
    if (!(in >> t)) return Status::Corruption("bad tid");
    if (t < 0) return Status::Corruption("negative tid");
    tids->Add(t);
  }
  return Status::Ok();
}

Status ReadPatternSet(std::istream& in, PatternSet* set) {
  std::string tag;
  int count = 0;
  if (!(in >> tag >> count) || tag != "patterns") {
    return Status::Corruption("expected 'patterns <n>'");
  }
  *set = PatternSet();
  for (int i = 0; i < count; ++i) {
    PatternInfo p;
    PARTMINER_RETURN_IF_ERROR(ReadCode(in, &p.code));
    if (!(in >> p.support)) return Status::Corruption("bad pattern header");
    PARTMINER_RETURN_IF_ERROR(ReadTids(in, &p.tids));
    set->Upsert(std::move(p));
  }
  return Status::Ok();
}

Status ReadFrontier(std::istream& in, NodeFrontier* frontier) {
  std::string tag;
  int valid = 0;
  size_t count = 0;
  if (!(in >> tag >> valid >> count) || tag != "frontier") {
    return Status::Corruption("expected 'frontier <valid> <n>'");
  }
  frontier->valid = valid != 0;
  frontier->map.Clear();
  for (size_t i = 0; i < count; ++i) {
    DfsCode code;
    PARTMINER_RETURN_IF_ERROR(ReadCode(in, &code));
    TidSet tids;
    PARTMINER_RETURN_IF_ERROR(ReadTids(in, &tids));
    frontier->map.Put(code, std::move(tids));
  }
  return Status::Ok();
}

/// Serializes everything except the integrity footer.
Status SaveMinerStatePayload(const PartMiner& miner, std::ostream& out) {
  if (!miner.mined()) {
    return Status::InvalidArgument("miner has not completed Mine()");
  }
  out << kMagic << ' ' << kVersion << '\n';
  out << "root_support " << miner.root_support() << '\n';
  WritePatternSet(miner.patterns(), out);
  WriteFrontier(miner.root_frontier(), out);
  if (!out) return Status::IoError("write failed");
  return Status::Ok();
}

/// Parses and validates the footer of `contents`, returning the payload
/// (everything before the footer line) in `*payload`.
Status CheckFooter(const std::string& contents, std::string* payload) {
  // The footer is the final non-empty line; find it without trusting
  // anything else about the (possibly corrupted) contents.
  size_t end = contents.size();
  while (end > 0 && contents[end - 1] == '\n') --end;
  const size_t line_start = contents.rfind('\n', end == 0 ? 0 : end - 1);
  const std::string last_line = contents.substr(
      line_start == std::string::npos ? 0 : line_start + 1,
      end - (line_start == std::string::npos ? 0 : line_start + 1));

  std::istringstream footer(last_line);
  std::string tag, hex;
  uint64_t payload_bytes = 0;
  if (!(footer >> tag >> payload_bytes >> hex) || tag != kFooterTag) {
    return Status::Corruption(
        "missing integrity footer (file truncated or not a v" +
        std::to_string(kVersion) + " state file)");
  }
  char* hex_end = nullptr;
  const uint64_t expected_hash = std::strtoull(hex.c_str(), &hex_end, 16);
  if (hex_end == hex.c_str() || *hex_end != '\0') {
    return Status::Corruption("unparseable footer checksum '" + hex + "'");
  }

  *payload = contents.substr(0, line_start == std::string::npos
                                    ? 0
                                    : line_start + 1);
  if (payload->size() != payload_bytes) {
    return Status::Corruption(
        "payload is " + std::to_string(payload->size()) +
        " bytes but the footer records " + std::to_string(payload_bytes) +
        " (file truncated?)");
  }
  // FNV-1a: not cryptographic, it only needs to catch torn writes and
  // random corruption.
  const uint64_t actual_hash = Fnv1a(payload->data(), payload->size());
  if (actual_hash != expected_hash) {
    std::ostringstream msg;
    msg << "checksum mismatch: payload hashes to " << std::hex
        << actual_hash << " but the footer records " << expected_hash
        << " (file corrupted)";
    return Status::Corruption(msg.str());
  }
  return Status::Ok();
}

}  // namespace

Status SaveMinerState(const PartMiner& miner, std::ostream& out) {
  std::ostringstream payload;
  PARTMINER_RETURN_IF_ERROR(SaveMinerStatePayload(miner, payload));
  const std::string data = payload.str();
  std::ostringstream hex;
  hex << std::hex << Fnv1a(data.data(), data.size());
  out << data << kFooterTag << ' ' << data.size() << ' ' << hex.str()
      << '\n';
  if (!out) return Status::IoError("write failed");
  return Status::Ok();
}

Status SaveMinerStateFile(const PartMiner& miner, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  return SaveMinerState(miner, out);
}

namespace {

Status LoadMinerStatePayload(std::istream& in, PartMiner* miner) {
  std::string magic, tag;
  int version = 0;
  if (!(in >> magic >> version) || magic != kMagic) {
    return Status::Corruption("not a partminer state file");
  }
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported state version " +
                                   std::to_string(version));
  }

  int root_support = 0;
  if (!(in >> tag >> root_support) || tag != "root_support") {
    return Status::Corruption("expected root_support");
  }
  PatternSet patterns;
  PARTMINER_RETURN_IF_ERROR(ReadPatternSet(in, &patterns));
  NodeFrontier frontier;
  PARTMINER_RETURN_IF_ERROR(ReadFrontier(in, &frontier));

  // Install (only after everything parsed and validated, so a failed load
  // leaves the miner untouched).
  miner->mutable_patterns() = std::move(patterns);
  miner->mutable_root_frontier() = std::move(frontier);
  miner->RestoreMinedState(root_support);
  return Status::Ok();
}

}  // namespace

Status LoadMinerState(std::istream& in, PartMiner* miner) {
  // Slurp the whole stream first: nothing in the file is trusted until the
  // footer's length and checksum have validated the payload.
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("read failed");
  const std::string contents = buffer.str();
  if (contents.empty()) return Status::Corruption("empty state file");

  std::string payload;
  PARTMINER_RETURN_IF_ERROR(CheckFooter(contents, &payload));
  std::istringstream payload_in(payload);
  return LoadMinerStatePayload(payload_in, miner);
}

Status LoadMinerStateFile(const std::string& path, PartMiner* miner) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  return LoadMinerState(in, miner);
}

}  // namespace partminer
