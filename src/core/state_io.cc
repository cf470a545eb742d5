#include "core/state_io.h"

#include <ostream>
#include <vector>

namespace partminer {

namespace {

// The first line names the layout. Nothing parses it; it stays so that the
// output's length, the one thing measured, stays comparable.
constexpr const char* kMagic = "partminer-state";
constexpr int kVersion = 4;

void WriteCode(const DfsCode& code, std::ostream& out) {
  out << code.size();
  for (const DfsEdge& e : code.edges()) {
    out << ' ' << e.from << ' ' << e.to << ' ' << e.from_label << ' '
        << e.edge_label << ' ' << e.to_label;
  }
}

// TidSets are written in their ascending vector form, so the text does not
// depend on which form a set is stored in.
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
// so a lazily maintained frontier writes exactly as a compacted one would.
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

}  // namespace

Status SaveMinerState(const PartMiner& miner, std::ostream& out) {
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

}  // namespace partminer
