#include "service/session.h"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <sstream>

#include "common/fnv.h"
#include "common/timing.h"
#include "core/state_io.h"
#include "graph/canonical.h"
#include "graph/graph_io.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace partminer {
namespace service {

namespace {

// The digest's seed: the 64-bit FNV offset basis with its last digit
// dropped. Digests are compared across runs and pinned by golden tests, so
// it stays as it is.
constexpr uint64_t kDigestSeed = 1469598103934665603ull;

/// Every injected fault leaves a flight-recorder event before the Status
/// surfaces — the post-mortem trail a degraded fault-injected run is judged
/// by (and what the fault-sweep asserts on).
Status RecordInjectedFault(FaultInjector::Op op, const std::string& context) {
  obs::FlightRecorder::Global().Record(
      obs::FlightEventType::kFaultInjected, 0, 0, 0,
      (std::string(FaultInjector::OpName(op)) + " " + context).c_str());
  return FaultInjector::InjectedFault(op, context);
}

/// The (code string, support) pairs of `patterns` sorted by code string —
/// each code stringified once — and in `order` the pattern index of each.
std::vector<std::pair<std::string, int>> SortByCode(
    const std::vector<PatternInfo>& patterns, std::vector<int>* order) {
  std::vector<std::string> codes(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    codes[i] = patterns[i].code.ToString();
  }
  order->resize(patterns.size());
  std::iota(order->begin(), order->end(), 0);
  std::sort(order->begin(), order->end(),
            [&](int a, int b) { return codes[a] < codes[b]; });
  std::vector<std::pair<std::string, int>> sorted;
  sorted.reserve(patterns.size());
  for (const int i : *order) {
    sorted.emplace_back(std::move(codes[i]), patterns[i].support);
  }
  return sorted;
}

/// FNV-1a from kDigestSeed over (code, support) pairs already sorted by
/// code string.
uint64_t DigestSorted(const std::vector<std::pair<std::string, int>>& sorted) {
  uint64_t h = kDigestSeed;
  for (const auto& [code, support] : sorted) {
    h = Fnv1a(code.data(), code.size(), h);
    h = Fnv1a(&support, sizeof(support), h);
  }
  return h;
}

Status NotInitialized() {
  return Status::InvalidArgument("session not initialized");
}

}  // namespace

MinerSession::MinerSession(const SessionOptions& options)
    : options_(options),
      published_(std::make_shared<const Published>()),
      epoch_digests_(kDigestWindow) {}

MinerSession::~MinerSession() = default;

uint64_t PatternSetDigest(const PatternSet& patterns) {
  std::vector<int> order;
  return DigestSorted(SortByCode(patterns.patterns(), &order));
}

void MinerSession::PublishLocked() {
  // Sort once by code string (the digest's order, and the containment
  // table), then order only an index array for replies.
  const std::vector<PatternInfo>& patterns = miner_->patterns().patterns();
  const int n = static_cast<int>(patterns.size());
  std::vector<int> order;
  auto next = std::make_shared<Published>();
  next->ready = true;
  next->epoch = epoch_;
  next->resident_support = miner_->root_support();
  next->graph_count = db_.size();
  next->by_code = SortByCode(patterns, &order);
  next->digest = DigestSorted(next->by_code);
  next->by_support.resize(n);
  std::iota(next->by_support.begin(), next->by_support.end(), 0);
  std::sort(next->by_support.begin(), next->by_support.end(),
            [&](int a, int b) {
              const PatternInfo& pa = patterns[order[a]];
              const PatternInfo& pb = patterns[order[b]];
              if (pa.support != pb.support) return pa.support > pb.support;
              return pa.code.Compare(pb.code) < 0;
            });

  const Frontier& frontier = miner_->root_frontier().map;
  next->frontier_entries = static_cast<int64_t>(frontier.size());
  next->frontier_dead_entries = static_cast<int64_t>(frontier.CountDead());

  epoch_digests_[epoch_ % kDigestWindow] = {epoch_, next->digest};
  PM_METRIC_GAUGE("service.epoch")->Set(static_cast<int64_t>(epoch_));
  PM_METRIC_GAUGE("service.patterns")->Set(n);
  PM_METRIC_GAUGE("partminer.frontier.entries")->Set(next->frontier_entries);
  PM_METRIC_GAUGE("partminer.frontier.dead_entries")
      ->Set(next->frontier_dead_entries);
  std::shared_ptr<const Published> previous = std::move(next);
  {
    std::lock_guard<std::mutex> lock(published_mu_);
    published_.swap(previous);
  }
  // The previous epoch is freed here, outside the pointer lock, unless a
  // reader still holds it.
}

Status MinerSession::Init(GraphDatabase db) {
  if (db.empty()) return Status::InvalidArgument("empty database");
  std::unique_lock lock(mu_);
  db_ = std::move(db);
  miner_ = std::make_unique<PartMiner>(options_.miner);
  miner_->Mine(db_);
  epoch_ = 0;
  epoch_digests_.assign(kDigestWindow, {});
  PublishLocked();
  return Status::Ok();
}

Status MinerSession::InitFromSnapshot(const std::string& db_path,
                                      const std::string& state_path) {
  std::unique_lock lock(mu_);
  if (injector_ != nullptr &&
      injector_->ShouldFail(FaultInjector::Op::kRead)) {
    return RecordInjectedFault(FaultInjector::Op::kRead,
                               "reading snapshot " + db_path);
  }
  GraphDatabase db;
  PARTMINER_RETURN_IF_ERROR_CTX(ReadGraphDatabaseFile(db_path, &db),
                                "restoring snapshot database");
  if (db.empty()) return Status::Corruption("snapshot database is empty");
  auto miner = std::make_unique<PartMiner>(options_.miner);
  PARTMINER_RETURN_IF_ERROR_CTX(LoadMinerStateFile(state_path, miner.get()),
                                "restoring miner state");
  // Only adopt the new state once both halves restored; a failed restore
  // leaves any previous resident state serving.
  db_ = std::move(db);
  miner_ = std::move(miner);
  epoch_ = 0;
  epoch_digests_.assign(kDigestWindow, {});
  PublishLocked();
  return Status::Ok();
}

Status MinerSession::ApplyBatch(const std::vector<EditOp>& edits,
                                BatchResult* result) {
  Stopwatch watch;
  std::unique_lock lock(mu_);
  if (miner_ == nullptr) return NotInitialized();
  if (edits.empty()) return Status::InvalidArgument("empty edit batch");
  // Admission: an injected alloc fault models the arena/queue memory the
  // batch would pin during re-mining. Nothing has mutated yet, so failing
  // here is free.
  if (injector_ != nullptr &&
      injector_->ShouldFail(FaultInjector::Op::kAlloc)) {
    return RecordInjectedFault(FaultInjector::Op::kAlloc,
                               "admitting update batch");
  }

  // Phase B: apply the edits to the resident database.
  Stopwatch phase_watch;
  UpdateLog log;
  EditBatchOutcome outcome;
  {
    PM_TRACE_SPAN("phase_b_apply", {{"edits", edits.size()}});
    outcome = ApplyEditBatch(&db_, edits, &log);
  }
  result->phase_b_seconds = phase_watch.ElapsedSeconds();
  result->applied = outcome.applied;
  result->rejected = outcome.rejected;
  result->first_rejection = outcome.first_rejection;
  PM_METRIC_COUNTER("service.edits_applied")->Add(outcome.applied);
  PM_METRIC_COUNTER("service.edits_rejected")->Add(outcome.rejected);

  // Phase A: the incremental re-mine round (root merge, classification)
  // plus publishing the new epoch.
  phase_watch.Restart();
  if (outcome.applied > 0) {
    PM_TRACE_SPAN("phase_a_remine", {{"applied", outcome.applied}});
    inc_.Update(miner_.get(), db_, log);
    ++epoch_;
    PublishLocked();
  }
  result->phase_a_seconds = phase_watch.ElapsedSeconds();
  result->epoch = epoch_;
  result->patterns = miner_->patterns().size();
  result->apply_seconds = watch.ElapsedSeconds();
  PM_METRIC_COUNTER("service.batches_applied")->Increment();
  obs::MetricRegistry::Global()
      .GetHistogram("service.batch_edits", obs::Histogram::DefaultSizeBounds())
      ->Observe(static_cast<double>(edits.size()));
  PM_METRIC_HISTOGRAM("service.batch_apply_ms")
      ->Observe(result->apply_seconds * 1e3);
  PM_METRIC_HISTOGRAM("service.phase_a_ms")
      ->Observe(result->phase_a_seconds * 1e3);
  PM_METRIC_HISTOGRAM("service.phase_b_ms")
      ->Observe(result->phase_b_seconds * 1e3);
  return Status::Ok();
}

Status MinerSession::Query(const QueryRequest& request, QueryReply* reply) {
  const std::shared_ptr<const Published> pub = Current();
  if (!pub->ready) return NotInitialized();
  const int resident = pub->resident_support;
  const int support = request.support == 0 ? resident : request.support;
  if (support < resident) {
    return Status::OutOfRange(
        "support " + std::to_string(support) +
        " below the resident threshold " + std::to_string(resident) +
        " (the resident state only knows patterns at or above it)");
  }
  reply->epoch = pub->epoch;
  reply->digest = pub->digest;
  reply->support = support;

  const auto& by_code = pub->by_code;
  const auto frequent_end = std::partition_point(
      pub->by_support.begin(), pub->by_support.end(),
      [&](int i) { return by_code[i].second >= support; });
  reply->count = static_cast<int>(frequent_end - pub->by_support.begin());
  if (request.limit != 0) {
    const int take = request.limit < 0 ? reply->count
                                       : std::min(reply->count, request.limit);
    reply->patterns.reserve(take);
    for (int r = 0; r < take; ++r) {
      reply->patterns.push_back(by_code[pub->by_support[r]]);
    }
  }

  if (!request.pattern_text.empty()) {
    reply->has_containment = true;
    std::istringstream in(request.pattern_text);
    GraphDatabase pattern_db;
    PARTMINER_RETURN_IF_ERROR_CTX(ReadGraphDatabase(in, &pattern_db),
                                  "parsing containment pattern");
    if (pattern_db.size() != 1) {
      return Status::InvalidArgument(
          "containment pattern must be exactly one graph, got " +
          std::to_string(pattern_db.size()));
    }
    const Graph& pattern = pattern_db.graph(0);
    if (pattern.EdgeCount() < 1 || !pattern.IsConnected()) {
      return Status::InvalidArgument(
          "containment pattern must be connected with at least one edge");
    }
    const std::string code = MinimumDfsCode(pattern).ToString();
    const auto it = std::lower_bound(
        by_code.begin(), by_code.end(), code,
        [](const std::pair<std::string, int>& entry, const std::string& key) {
          return entry.first < key;
        });
    const bool found = it != by_code.end() && it->first == code;
    // Absent from the resident set means support < resident <= `support`,
    // so "not frequent at the queried support" is exact either way.
    reply->contained = found && it->second >= support;
    reply->pattern_support = found ? it->second : 0;
  }
  PM_METRIC_COUNTER("service.queries")->Increment();
  return Status::Ok();
}

Status MinerSession::Snapshot(const std::string& prefix,
                              SnapshotResult* result) {
  // Copy the resident state under the lock and write it without: the next
  // batch apply waits for the copy, not for the disk.
  GraphDatabase db;
  std::unique_ptr<PartMiner> miner;
  {
    std::shared_lock lock(mu_);
    if (miner_ == nullptr) return NotInitialized();
    if (prefix.empty()) {
      return Status::InvalidArgument("empty snapshot prefix");
    }
    result->epoch = epoch_;
    db = db_;
    miner = std::make_unique<PartMiner>(*miner_);
  }
  result->db_path = prefix + ".db.lg";
  result->state_path = prefix + ".state";
  // One injector consultation per file write, mirroring the DiskManager
  // hook: a scripted write fault fails this snapshot cleanly and the next
  // attempt (next schedule point) succeeds.
  if (injector_ != nullptr &&
      injector_->ShouldFail(FaultInjector::Op::kWrite)) {
    return RecordInjectedFault(FaultInjector::Op::kWrite,
                               "writing " + result->db_path);
  }
  PARTMINER_RETURN_IF_ERROR_CTX(WriteGraphDatabaseFile(db, result->db_path),
                                "snapshotting database");
  if (injector_ != nullptr &&
      injector_->ShouldFail(FaultInjector::Op::kWrite)) {
    return RecordInjectedFault(FaultInjector::Op::kWrite,
                               "writing " + result->state_path);
  }
  PARTMINER_RETURN_IF_ERROR_CTX(
      SaveMinerStateFile(*miner, result->state_path),
      "snapshotting miner state");
  PM_METRIC_COUNTER("service.snapshots")->Increment();
  obs::FlightRecorder::Global().Record(
      obs::FlightEventType::kSnapshotWritten,
      static_cast<int64_t>(result->epoch), 0, 0, prefix.c_str());
  return Status::Ok();
}

uint64_t MinerSession::DigestAt(uint64_t epoch) const {
  std::shared_lock lock(mu_);
  const auto& [slot_epoch, digest] = epoch_digests_[epoch % kDigestWindow];
  return slot_epoch == epoch ? digest : 0;
}

PatternSet MinerSession::VerifiedPatterns() const {
  std::shared_lock lock(mu_);
  return miner_ != nullptr ? miner_->patterns() : PatternSet();
}

}  // namespace service
}  // namespace partminer
