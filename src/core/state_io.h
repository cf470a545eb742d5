#ifndef PARTMINER_CORE_STATE_IO_H_
#define PARTMINER_CORE_STATE_IO_H_

#include <iosfwd>

#include "common/status.h"
#include "core/part_miner.h"

namespace partminer {

/// Writes everything IncPartMiner reads — the root support, the root's
/// exact pattern set and the compacted root frontier — as line-oriented
/// text. Its only reader is perfbench `update_rounds`, which takes the
/// length of the output as `core.state_bytes`. Nothing loads it back: the
/// state is a function of the database and the support, and a restore
/// re-mines a snapshot of the database (MinerSession::Snapshot).
Status SaveMinerState(const PartMiner& miner, std::ostream& out);

}  // namespace partminer

#endif  // PARTMINER_CORE_STATE_IO_H_
