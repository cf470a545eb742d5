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
/// everything IncPartMiner reads — the partition assignments, the root's
/// exact pattern set (the result) and the root frontier — in a versioned
/// line-oriented text format (v3; older versions are refused). The file
/// ends with an integrity footer (`footer <payload_bytes> <fnv1a_hex>`);
/// Load validates the footer before trusting any of the payload, so a
/// truncated or bit-flipped file fails with a descriptive Corruption
/// status instead of silently restoring bad state.
///
/// The database itself is not stored (persist it separately with
/// WriteGraphDatabaseFile); on load the assignments must match the database
/// the state was saved against, which is checked structurally.
Status SaveMinerState(const PartMiner& miner, std::ostream& out);
Status SaveMinerStateFile(const PartMiner& miner, const std::string& path);

/// Restores a previously saved state into `miner` (constructed with
/// compatible options — in particular the same k). After a successful load
/// the miner behaves as if it had just completed Mine() on the saved
/// database: IncPartMiner::Update may be called directly.
Status LoadMinerState(std::istream& in, PartMiner* miner);
Status LoadMinerStateFile(const std::string& path, PartMiner* miner);

}  // namespace partminer

#endif  // PARTMINER_CORE_STATE_IO_H_
