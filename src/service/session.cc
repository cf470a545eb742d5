#include "service/session.h"

#include <algorithm>
#include <mutex>
#include <sstream>

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

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void FnvMix(uint64_t* h, const void* data, size_t n) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= bytes[i];
    *h *= kFnvPrime;
  }
}

/// Every injected fault leaves a flight-recorder event before the Status
/// surfaces — the post-mortem trail a degraded fault-injected run is judged
/// by (and what the fault-sweep asserts on).
Status RecordInjectedFault(FaultInjector::Op op, const std::string& context) {
  obs::FlightRecorder::Global().Record(
      obs::FlightEventType::kFaultInjected, 0, 0, 0,
      (std::string(FaultInjector::OpName(op)) + " " + context).c_str());
  return FaultInjector::InjectedFault(op, context);
}

}  // namespace

MinerSession::MinerSession(const SessionOptions& options)
    : options_(options) {}

MinerSession::~MinerSession() = default;

uint64_t PatternSetDigest(const PatternSet& patterns) {
  std::vector<std::pair<std::string, int>> entries;
  entries.reserve(patterns.size());
  for (const PatternInfo& p : patterns.patterns()) {
    entries.emplace_back(p.code.ToString(), p.support);
  }
  std::sort(entries.begin(), entries.end());
  uint64_t h = kFnvOffset;
  for (const auto& [code, support] : entries) {
    FnvMix(&h, code.data(), code.size());
    FnvMix(&h, &support, sizeof(support));
  }
  return h;
}

Status MinerSession::CheckReadyLocked() const {
  if (!ready_) return Status::InvalidArgument("session not initialized");
  return Status::Ok();
}

void MinerSession::RecordEpochLocked() {
  digest_ = PatternSetDigest(miner_->patterns());
  epoch_digests_[epoch_] = digest_;
  PM_METRIC_GAUGE("service.epoch")->Set(static_cast<int64_t>(epoch_));
  PM_METRIC_GAUGE("service.patterns")->Set(miner_->patterns().size());
}

Status MinerSession::Init(GraphDatabase db) {
  std::unique_lock lock(mu_);
  db_ = std::move(db);
  if (db_.empty()) return Status::InvalidArgument("empty database");
  miner_ = std::make_unique<PartMiner>(options_.miner);
  miner_->Mine(db_);
  epoch_ = 0;
  ready_ = true;
  epoch_digests_.clear();
  RecordEpochLocked();
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
  ready_ = true;
  epoch_digests_.clear();
  RecordEpochLocked();
  return Status::Ok();
}

Status MinerSession::ApplyBatch(const std::vector<EditOp>& edits,
                                BatchResult* result) {
  Stopwatch watch;
  std::unique_lock lock(mu_);
  PARTMINER_RETURN_IF_ERROR(CheckReadyLocked());
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

  // Phase A: the incremental re-mine round (routing, root merge,
  // classification) plus the epoch digest that publishes it.
  phase_watch.Restart();
  if (outcome.applied > 0) {
    PM_TRACE_SPAN("phase_a_remine", {{"applied", outcome.applied}});
    const IncPartMinerResult inc = inc_.Update(miner_.get(), db_, log);
    result->remined_units = inc.remined_units.Count();
    ++epoch_;
    RecordEpochLocked();
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
  std::shared_lock lock(mu_);
  PARTMINER_RETURN_IF_ERROR(CheckReadyLocked());
  const int resident = miner_->root_support();
  const int support = request.support == 0 ? resident : request.support;
  if (support < resident) {
    return Status::OutOfRange(
        "support " + std::to_string(support) +
        " below the resident threshold " + std::to_string(resident) +
        " (the resident state only knows patterns at or above it)");
  }
  reply->epoch = epoch_;
  reply->digest = digest_;
  reply->support = support;

  const PatternSet& verified = miner_->patterns();
  std::vector<const PatternInfo*> frequent;
  for (const PatternInfo& p : verified.patterns()) {
    if (p.support >= support) frequent.push_back(&p);
  }
  reply->count = static_cast<int>(frequent.size());

  if (request.limit != 0) {
    std::sort(frequent.begin(), frequent.end(),
              [](const PatternInfo* a, const PatternInfo* b) {
                if (a->support != b->support) return a->support > b->support;
                return a->code.Compare(b->code) < 0;
              });
    const size_t take = request.limit < 0
                            ? frequent.size()
                            : std::min(frequent.size(),
                                       static_cast<size_t>(request.limit));
    reply->patterns.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      reply->patterns.emplace_back(frequent[i]->code.ToString(),
                                   frequent[i]->support);
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
    const DfsCode code = MinimumDfsCode(pattern);
    const PatternInfo* found = verified.Find(code);
    // Absent from the verified set means support < resident <= `support`,
    // so "not frequent at the queried support" is exact either way.
    reply->contained = found != nullptr && found->support >= support;
    reply->pattern_support = found != nullptr ? found->support : 0;
  }
  PM_METRIC_COUNTER("service.queries")->Increment();
  return Status::Ok();
}

Status MinerSession::Snapshot(const std::string& prefix,
                              SnapshotResult* result) {
  std::shared_lock lock(mu_);
  PARTMINER_RETURN_IF_ERROR(CheckReadyLocked());
  if (prefix.empty()) return Status::InvalidArgument("empty snapshot prefix");
  result->epoch = epoch_;
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
  PARTMINER_RETURN_IF_ERROR_CTX(WriteGraphDatabaseFile(db_, result->db_path),
                                "snapshotting database");
  if (injector_ != nullptr &&
      injector_->ShouldFail(FaultInjector::Op::kWrite)) {
    return RecordInjectedFault(FaultInjector::Op::kWrite,
                               "writing " + result->state_path);
  }
  PARTMINER_RETURN_IF_ERROR_CTX(
      SaveMinerStateFile(*miner_, result->state_path),
      "snapshotting miner state");
  PM_METRIC_COUNTER("service.snapshots")->Increment();
  obs::FlightRecorder::Global().Record(
      obs::FlightEventType::kSnapshotWritten,
      static_cast<int64_t>(epoch_), 0, 0, prefix.c_str());
  return Status::Ok();
}

bool MinerSession::ready() const {
  std::shared_lock lock(mu_);
  return ready_;
}

uint64_t MinerSession::epoch() const {
  std::shared_lock lock(mu_);
  return epoch_;
}

uint64_t MinerSession::digest() const {
  std::shared_lock lock(mu_);
  return digest_;
}

uint64_t MinerSession::DigestAt(uint64_t epoch) const {
  std::shared_lock lock(mu_);
  const auto it = epoch_digests_.find(epoch);
  return it == epoch_digests_.end() ? 0 : it->second;
}

int MinerSession::resident_support() const {
  std::shared_lock lock(mu_);
  return ready_ ? miner_->root_support() : 0;
}

int MinerSession::graph_count() const {
  std::shared_lock lock(mu_);
  return db_.size();
}

int MinerSession::pattern_count() const {
  std::shared_lock lock(mu_);
  return ready_ ? miner_->patterns().size() : 0;
}

PatternSet MinerSession::VerifiedPatterns() const {
  std::shared_lock lock(mu_);
  return ready_ ? miner_->patterns() : PatternSet();
}

}  // namespace service
}  // namespace partminer
