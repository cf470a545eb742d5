#ifndef PARTMINER_SERVICE_SESSION_H_
#define PARTMINER_SERVICE_SESSION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
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
};

/// Result of one applied update batch.
struct BatchResult {
  uint64_t epoch = 0;  // Epoch after this batch.
  int applied = 0;
  int rejected = 0;
  std::string first_rejection;
  int patterns = 0;
  double apply_seconds = 0;
  /// Lifecycle breakdown (DESIGN.md section 13): phase B is applying the
  /// edits to the resident database; phase A is the incremental re-mine
  /// round (root merge, classification, digest). Together they
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
};

/// Append-only storage for the text of published code strings. Text once
/// added never moves, so a view into it stays valid while the arena lives:
/// the writer adds new codes while readers read older ones, and an epoch is
/// built by copying views, not text.
class CodeArena {
 public:
  std::string_view Add(std::string_view text);
  /// Bytes of text added.
  size_t bytes() const { return bytes_; }

 private:
  static constexpr size_t kBlockBytes = size_t{64} << 10;
  std::vector<std::unique_ptr<char[]>> blocks_;
  size_t block_used_ = 0;
  size_t block_size_ = 0;
  size_t bytes_ = 0;
};

/// One published epoch: everything the read verbs answer from, built once by
/// the writer and never mutated afterwards, so readers need no lock.
struct Published {
  bool ready = false;  // False only for the empty state before Init.
  uint64_t epoch = 0;
  uint64_t digest = 0;  // PatternSetDigest of the pattern set below.
  int resident_support = 0;
  int graph_count = 0;
  /// (canonical code string, support), sorted by code string: the digest's
  /// input, and the binary-search table for containment probes. The
  /// strings are views into `arena`.
  std::vector<std::pair<std::string_view, int>> by_code;
  std::shared_ptr<const CodeArena> arena;
  /// Indices into by_code ordered by (support desc, DfsCode::Compare): the
  /// reply order of `limit` queries.
  std::vector<int> by_support;
};

/// The root frontier of the resident state, as `health` reports it.
struct FrontierHealth {
  /// The published epoch the counts belong to.
  std::shared_ptr<const Published> published;
  /// Entries stored, and how many of them are dead (cut but not yet
  /// compacted away).
  int64_t entries = 0;
  int64_t dead_entries = 0;
  /// Heap bytes of the frontier (Frontier::Bytes).
  int64_t bytes = 0;
};

/// The daemon's resident mining state: one database + the PartMiner root
/// state (pattern set and frontier) kept in memory across requests, updated in place by IncPartMiner so the
/// incremental machinery finally serves more than one request per process.
///
/// Concurrency contract:
///  - Writers (Init*, ApplyBatch) take the session lock exclusively; the one
///    writer is the daemon's batcher, so epochs form a linear history 1, 2,
///    3, ... Each write ends by publishing an immutable Published, whose
///    pointer is swapped under a mutex held only for the swap.
///  - Query, Current, ready, epoch, digest, resident_support, graph_count
///    and pattern_count copy that pointer and never take the session lock:
///    a reply reflects one published epoch and never waits on an apply.
///  - VerifiedPatterns and DigestAt read the resident state under the
///    session lock, shared. Snapshot copies the database under the lock,
///    shared, and writes the copy with no lock held, so the disk never
///    holds off an apply.
///  - DigestAt keeps the last kDigestWindow epochs, so tests can check a
///    reply's (epoch, digest) against what the batcher produced.
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

  /// Restores from a Snapshot() file: checks its footer, reads the
  /// database and mines it at the saved support, whatever the configured
  /// one. The new state is adopted only on success, so a failed restore
  /// leaves the session as it was. The restored session restarts its epoch
  /// counter at 0 (epochs are session-local; pattern-set digests, not epoch
  /// numbers, are what survive restarts).
  Status InitFromSnapshot(const std::string& path);

  /// Applies one edit batch and incrementally re-mines. Exclusive.
  Status ApplyBatch(const std::vector<EditOp>& edits, BatchResult* result);

  /// Frequent-pattern retrieval / containment at a given support, answered
  /// from the current published epoch; never takes the session lock.
  Status Query(const QueryRequest& request, QueryReply* reply);

  /// Writes `<prefix>.db.lg`: the database of the epoch current when it
  /// starts, in gSpan text format, and a comment line with the root support
  /// and a checksum. It copies the database under the session lock, shared,
  /// and writes with no lock held: the next batch apply waits for the copy
  /// only, and a query never waits.
  Status Snapshot(const std::string& prefix, SnapshotResult* result);

  /// The current published epoch (an empty, unready one until the first
  /// Init succeeds). A caller that reads several fields holds one pointer
  /// for all of them.
  std::shared_ptr<const Published> Current() const {
    std::lock_guard<std::mutex> lock(published_mu_);
    return published_;
  }

  bool ready() const { return Current()->ready; }
  uint64_t epoch() const { return Current()->epoch; }
  uint64_t digest() const { return Current()->digest; }
  int resident_support() const { return Current()->resident_support; }
  int graph_count() const { return Current()->graph_count; }
  int pattern_count() const {
    return static_cast<int>(Current()->by_code.size());
  }

  /// Epochs whose digest DigestAt still knows: the most recent ones.
  static constexpr uint64_t kDigestWindow = 4096;
  /// Digest recorded when `epoch` was produced, or 0 when unknown (never
  /// produced, or older than the last kDigestWindow epochs).
  uint64_t DigestAt(uint64_t epoch) const;
  const SessionOptions& options() const { return options_; }

  /// Testing/fuzzing hook: storage faults for the *resident* paths. The
  /// injector is consulted on batch admission (alloc), snapshot writes
  /// (write) and snapshot restores (read); an armed fault fails the request
  /// with a clean Status and leaves the session serving.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// In-process copy of the resident verified pattern set (tests diff it
  /// against a from-scratch oracle). Shared lock.
  PatternSet VerifiedPatterns() const;

  /// The root frontier's counts and bytes and the epoch they belong to,
  /// read under the session lock, shared. Counting the dead entries walks
  /// the frontier once a node is cut, so no publish does it: only `health`
  /// asks, and it waits for a running apply.
  FrontierHealth FrontierCounts() const;

 private:
  /// Builds the Published of the current resident state from `prev`, the
  /// epoch the kept code index describes, and one round's change:
  /// `entered` (IF, or the whole set on Init), `left` (FI) and `moved`
  /// (support changes; their new info is in the resident set). Swaps it in
  /// and records its digest for DigestAt. Caller holds mu_ exclusively.
  void PublishLocked(const Published& prev, const PatternSet& entered,
                     const PatternSet& left,
                     const std::vector<DfsCode>& moved);
  /// Publishes a freshly mined resident state as epoch 0: an all-IF change
  /// on an empty index. Caller holds mu_ exclusively.
  void PublishMinedLocked();

  SessionOptions options_;
  FaultInjector* injector_ = nullptr;

  /// Held only to copy or swap the pointer. Not std::atomic<shared_ptr>:
  /// ThreadSanitizer cannot see libstdc++'s lock-bit implementation of it.
  mutable std::mutex published_mu_;
  std::shared_ptr<const Published> published_;

  mutable std::shared_mutex mu_;
  uint64_t epoch_ = 0;
  GraphDatabase db_;
  std::unique_ptr<PartMiner> miner_;  // Null until initialized.
  IncPartMiner inc_;
  /// (epoch, digest) of recent epochs, slot epoch % kDigestWindow.
  std::vector<std::pair<uint64_t, uint64_t>> epoch_digests_;
  /// The code index kept across epochs: every resident code with its
  /// string in `arena_`, and for by_code[i] of the current epoch the key of
  /// its entry here (node keys do not move), which by_support's order
  /// compares. `live_bytes_` is the text of the resident codes; the arena
  /// also keeps the text of codes that left, until a publish copies the
  /// live text to a fresh arena.
  std::unordered_map<DfsCode, std::string_view, DfsCodeHash> code_strings_;
  std::vector<const DfsCode*> by_code_codes_;
  std::shared_ptr<CodeArena> arena_;
  size_t live_bytes_ = 0;
};

}  // namespace service
}  // namespace partminer

#endif  // PARTMINER_SERVICE_SESSION_H_
