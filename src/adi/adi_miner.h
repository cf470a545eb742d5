#ifndef PARTMINER_ADI_ADI_MINER_H_
#define PARTMINER_ADI_ADI_MINER_H_

#include <string>

#include "adi/adi_index.h"
#include "common/status.h"
#include "miner/miner.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace partminer {

struct AdiMineOptions {
  /// Buffer-pool sizing; tools set it from --pool-frames. Small pools force
  /// re-reads during scans, modeling a database larger than memory.
  PoolSizing pool;
  /// Backing file; empty picks a unique temp path.
  std::string file_path;
  /// Simulated per-page access latency (microseconds); models the 2006-era
  /// disk the paper's ADIMINE ran against. See DiskManager.
  int io_delay_us = 0;
};

/// Disk-based frequent-subgraph miner standing in for ADIMINE [15] (the
/// paper compared against the authors' closed executable; see DESIGN.md for
/// the substitution rationale). Graphs live in an ADI-style page-resident
/// index; mining scans decode them through a bounded buffer pool and feed a
/// gSpan-style in-memory search, which mirrors ADI's "index makes static
/// mining fast" profile.
///
/// The decisive behavior for the paper's dynamic experiments is faithfully
/// reproduced: AdiMine cannot update its index incrementally — any database
/// change requires RebuildIndex() followed by a full Mine(), while
/// IncPartMiner re-mines only the affected units.
class AdiMine {
 public:
  explicit AdiMine(const AdiMineOptions& options = AdiMineOptions());

  AdiMine(const AdiMine&) = delete;
  AdiMine& operator=(const AdiMine&) = delete;

  /// Builds (or rebuilds) the disk-resident index from `db`.
  Status BuildIndex(const GraphDatabase& db);

  /// Full rebuild after updates — the only update path ADI supports.
  Status RebuildIndex(const GraphDatabase& db) { return BuildIndex(db); }

  /// Mines the indexed database: scans the index (skipping graphs without
  /// any frequent edge, per the edge table), decodes the survivors through
  /// the buffer pool, and runs the DFS-code search. A failed page scan
  /// (I/O error, injected fault, exhausted pool) propagates as a non-OK
  /// Status with `*out` left empty — never a crash or a partial answer.
  Status Mine(const MinerOptions& options, PatternSet* out);

  /// Convenience overload for callers without a failure path (benchmarks,
  /// experiment harnesses): checks the Status fatally.
  PatternSet Mine(const MinerOptions& options);

  /// Attaches `injector` to the underlying disk manager (nullptr detaches);
  /// see FaultInjector. The injector is not owned.
  void set_fault_injector(FaultInjector* injector) {
    disk_.set_fault_injector(injector);
  }

  const AdiIndex& index() const { return index_; }

  /// I/O counters of the page file and its buffer pool.
  const IoStats& io_stats() const { return disk_.stats(); }

  /// Seconds spent decoding pages during the last Mine().
  double last_scan_seconds() const { return last_scan_seconds_; }

 private:
  // Declaration order is construction order: pool_ points at disk_, and
  // index_ at pool_.
  DiskManager disk_;
  BufferPool pool_;
  AdiIndex index_;
  bool built_ = false;
  double last_scan_seconds_ = 0;
};

}  // namespace partminer

#endif  // PARTMINER_ADI_ADI_MINER_H_
