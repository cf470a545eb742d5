#ifndef PARTMINER_SERVICE_SESSION_H_
#define PARTMINER_SERVICE_SESSION_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/inc_part_miner.h"
#include "core/part_miner.h"
#include "datagen/edit_stream.h"
#include "graph/graph.h"
#include "storage/fault_injector.h"

namespace partminer {
namespace service {

/// Order-independent identity of a pattern set: FNV-1a over the sorted
/// (canonical code, support) pairs. Two states with the same digest mined
/// the same patterns at the same supports — the currency of the recovery
/// and concurrency tests, and of the `digest` protocol field.
uint64_t PatternSetDigest(const PatternSet& patterns);

struct SessionOptions {
  PartMinerOptions miner;
  /// Label-space hint recorded in snapshots and echoed by `info`; edits may
  /// exceed it (the paper's "existing or new labels").
  int num_labels = 20;
};

/// Result of one applied update batch.
struct BatchResult {
  uint64_t epoch = 0;  // Epoch after this batch.
  int applied = 0;
  int rejected = 0;
  std::string first_rejection;
  int remined_units = 0;
  int patterns = 0;
  double apply_seconds = 0;
  /// Lifecycle breakdown (DESIGN.md section 13): phase B is applying the
  /// edits to the resident database; phase A is the incremental re-mine
  /// round (routing, root merge, classification, digest). Together they
  /// tile apply_seconds.
  double phase_a_seconds = 0;
  double phase_b_seconds = 0;
};

struct QueryRequest {
  /// Absolute support threshold; 0 uses the session's resident support.
  /// Values below the resident support are OutOfRange (the resident state
  /// only knows patterns at or above it).
  int support = 0;
  /// Number of patterns to return: 0 = count + digest only, -1 = all,
  /// n > 0 = the n highest-support patterns (ties by code).
  int limit = 0;
  /// Optional containment probe: a single connected graph in gSpan text
  /// format. Frequency of that exact pattern is decided against the
  /// resident verified set.
  std::string pattern_text;
};

struct QueryReply {
  uint64_t epoch = 0;
  uint64_t digest = 0;  // Digest of the full resident pattern set.
  int support = 0;      // Threshold the reply was evaluated at.
  int count = 0;        // Patterns frequent at `support`.
  /// (canonical code string, support), at most `limit` entries.
  std::vector<std::pair<std::string, int>> patterns;
  bool has_containment = false;
  bool contained = false;
  int pattern_support = 0;  // Exact support when contained.
};

struct SnapshotResult {
  uint64_t epoch = 0;
  std::string db_path;
  std::string state_path;
};

/// The daemon's resident mining state: one database + PartMiner partition
/// kept in memory across requests, updated in place by IncPartMiner so the
/// incremental machinery finally serves more than one request per process.
///
/// Concurrency contract (enforced with one reader/writer lock):
///  - ApplyBatch takes the lock exclusively; there is exactly one writer
///    (the daemon's batcher thread), so batches serialize into a linear
///    epoch history 1, 2, 3, ...
///  - Query and Snapshot take it shared: any number of concurrent readers
///    observe a consistent epoch — never a half-applied batch.
///  - Every epoch's pattern-set digest (FNV-1a over sorted code/support
///    pairs) is retained; DigestAt lets tests prove that a concurrent
///    query's (epoch, digest) pair matches the state the batcher actually
///    produced at that epoch.
///
/// Degrade-don't-die: every failure path (invalid edits, injected storage
/// faults on snapshot I/O, admission failure) returns a Status that the
/// daemon maps to a structured error response. Nothing here aborts the
/// process, and a failed operation leaves the resident state untouched.
class MinerSession {
 public:
  explicit MinerSession(const SessionOptions& options);
  ~MinerSession();

  MinerSession(const MinerSession&) = delete;
  MinerSession& operator=(const MinerSession&) = delete;

  /// Mines `db` from scratch and becomes ready (epoch 0).
  Status Init(GraphDatabase db);

  /// Restores database + miner state from a Snapshot() pair. The restored
  /// session restarts its epoch counter at 0 (epochs are session-local;
  /// pattern-set digests, not epoch numbers, are what survive restarts).
  Status InitFromSnapshot(const std::string& db_path,
                          const std::string& state_path);

  /// Applies one edit batch and incrementally re-mines. Exclusive.
  Status ApplyBatch(const std::vector<EditOp>& edits, BatchResult* result);

  /// Frequent-pattern retrieval / containment at a given support. Shared.
  Status Query(const QueryRequest& request, QueryReply* reply);

  /// Writes `<prefix>.db.lg` + `<prefix>.state` (state_io v2, checksummed).
  /// Shared — snapshots run concurrently with queries.
  Status Snapshot(const std::string& prefix, SnapshotResult* result);

  bool ready() const;
  uint64_t epoch() const;
  uint64_t digest() const;
  /// Digest recorded when `epoch` was produced, or 0 when unknown.
  uint64_t DigestAt(uint64_t epoch) const;
  int resident_support() const;
  int graph_count() const;
  int pattern_count() const;
  const SessionOptions& options() const { return options_; }

  /// Testing/fuzzing hook: storage faults for the *resident* paths. The
  /// injector is consulted on batch admission (alloc), snapshot writes
  /// (write) and snapshot restores (read); an armed fault fails the request
  /// with a clean Status and leaves the session serving.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// In-process copy of the resident verified pattern set (tests diff it
  /// against a from-scratch oracle). Shared lock.
  PatternSet VerifiedPatterns() const;

 private:
  Status CheckReadyLocked() const;
  void RecordEpochLocked();

  SessionOptions options_;
  FaultInjector* injector_ = nullptr;

  mutable std::shared_mutex mu_;
  bool ready_ = false;
  uint64_t epoch_ = 0;
  uint64_t digest_ = 0;
  GraphDatabase db_;
  std::unique_ptr<PartMiner> miner_;
  IncPartMiner inc_;
  std::unordered_map<uint64_t, uint64_t> epoch_digests_;
};

}  // namespace service
}  // namespace partminer

#endif  // PARTMINER_SERVICE_SESSION_H_
