#ifndef PARTMINER_CORE_STATE_IO_H_
#define PARTMINER_CORE_STATE_IO_H_

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "core/part_miner.h"

namespace partminer {

/// Persistence for the incremental-mining state. The paper's setting is a
/// long-lived evolving database; a maintenance process must survive
/// restarts without re-mining from scratch. SaveMinerState captures
/// everything IncPartMiner reads — the root support, the root's exact
/// pattern set (the result) and the root frontier — in a versioned
/// line-oriented text format (v4; older versions are refused). The file
/// ends with an integrity footer (`footer <payload_bytes> <fnv1a_hex>`);
/// Load validates the footer before trusting any of the payload, so a
/// truncated or bit-flipped file fails with a descriptive Corruption
/// status instead of silently restoring bad state.
///
/// The database itself is not stored (persist it separately with
/// WriteGraphDatabaseFile); the state is only meaningful against the
/// database it was saved with.
Status SaveMinerState(const PartMiner& miner, std::ostream& out);
Status SaveMinerStateFile(const PartMiner& miner, const std::string& path);

/// Restores a previously saved state into `miner`, whose options supply
/// everything the file does not (max_edges, the delta-sweep switch). The
/// saved root support replaces the configured one. After a successful load
/// the miner behaves as if it had just completed Mine() on the saved
/// database: IncPartMiner::Update may be called directly.
Status LoadMinerState(std::istream& in, PartMiner* miner);
Status LoadMinerStateFile(const std::string& path, PartMiner* miner);

}  // namespace partminer

#endif  // PARTMINER_CORE_STATE_IO_H_
