#include "service/session.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>

#include "common/fnv.h"
#include "common/timing.h"
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

/// The (code string, support) pairs of `patterns` sorted by code string.
std::vector<std::pair<std::string, int>> SortByCode(
    const std::vector<PatternInfo>& patterns) {
  std::vector<std::pair<std::string, int>> sorted;
  sorted.reserve(patterns.size());
  for (const PatternInfo& p : patterns) {
    sorted.emplace_back(p.code.ToString(), p.support);
  }
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

/// FNV-1a from kDigestSeed over (code, support) pairs already sorted by
/// code string.
template <typename Code>
uint64_t DigestSorted(const std::vector<std::pair<Code, int>>& sorted) {
  uint64_t h = kDigestSeed;
  for (const auto& [code, support] : sorted) {
    h = Fnv1a(code.data(), code.size(), h);
    h = Fnv1a(&support, sizeof(support), h);
  }
  return h;
}

// A snapshot file is the database as WriteGraphDatabase writes it, then one
// comment line, which every .lg reader skips:
//
//   # partminer-snapshot support=<S> bytes=<n> fnv=<hex>
//
// <S> is the resolved root support, <n> the length of the database text and
// <hex> the FNV-1a of that text continued over <S>. A restore checks the
// line before it parses anything, so a truncated or bit-flipped file is
// refused, and re-mines the database at <S>: the miner state is a function
// of the two.
constexpr const char* kSnapshotFooter =
    "# partminer-snapshot support=%d bytes=%zu fnv=%llx";

std::string SnapshotFooter(int support, const std::string& text,
                           size_t bytes) {
  const uint64_t fnv =
      Fnv1a(&support, sizeof(support), Fnv1a(text.data(), bytes));
  char footer[96];
  std::snprintf(footer, sizeof(footer), kSnapshotFooter, support, bytes,
                static_cast<unsigned long long>(fnv));
  return footer;
}

Status WriteSnapshotFile(const GraphDatabase& db, int support,
                         const std::string& path) {
  std::ostringstream text;
  PARTMINER_RETURN_IF_ERROR(WriteGraphDatabase(db, text));
  const std::string data = std::move(text).str();
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << data << SnapshotFooter(support, data, data.size()) << '\n';
  if (!out.flush()) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Status ReadSnapshotFile(const std::string& path, GraphDatabase* db,
                        int* support) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("read failed: " + path);
  std::string contents = std::move(buffer).str();

  // The footer is the last non-empty line; find it without trusting
  // anything else about the (possibly corrupted) contents.
  size_t end = contents.size();
  while (end > 0 && contents[end - 1] == '\n') --end;
  const size_t newline = end == 0 ? std::string::npos
                                  : contents.rfind('\n', end - 1);
  const size_t start = newline == std::string::npos ? 0 : newline + 1;
  const std::string line = contents.substr(start, end - start);
  size_t bytes = 0;
  unsigned long long fnv = 0;
  if (std::sscanf(line.c_str(), kSnapshotFooter, support, &bytes, &fnv) !=
          3 ||
      *support < 1) {
    return Status::Corruption(
        "missing snapshot footer (file truncated or not a snapshot)");
  }
  if (bytes != start) {
    return Status::Corruption(
        "database is " + std::to_string(start) +
        " bytes but the footer records " + std::to_string(bytes) +
        " (file truncated?)");
  }
  // FNV-1a: not cryptographic, it only needs to catch torn writes and
  // random corruption. The footer must also read back exactly as written.
  if (SnapshotFooter(*support, contents, start) != line) {
    return Status::Corruption("checksum mismatch (file corrupted)");
  }
  PARTMINER_RETURN_IF_ERROR(ReadGraphDatabase(contents, db));
  if (db->empty()) return Status::Corruption("snapshot database is empty");
  return Status::Ok();
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
  return DigestSorted(SortByCode(patterns.patterns()));
}

std::string_view CodeArena::Add(std::string_view text) {
  if (blocks_.empty() || block_used_ + text.size() > block_size_) {
    block_size_ = std::max(kBlockBytes, text.size());
    blocks_.push_back(std::make_unique<char[]>(block_size_));
    block_used_ = 0;
  }
  char* at = blocks_.back().get() + block_used_;
  std::copy(text.begin(), text.end(), at);
  block_used_ += text.size();
  bytes_ += text.size();
  return {at, text.size()};
}

void MinerSession::PublishLocked(const Published& prev,
                                 const PatternSet& entered,
                                 const PatternSet& left,
                                 const std::vector<DfsCode>& moved) {
  PM_TRACE_SPAN("publish", {{"entered", entered.size()},
                            {"left", left.size()},
                            {"moved", moved.size()}});
  const PatternSet& patterns = miner_->patterns();
  const int kept = static_cast<int>(prev.by_code.size());
  // The previous epoch's position of a resident code: its string sorts it
  // among the kept entries.
  const auto position = [&](const DfsCode& code) {
    const auto it = code_strings_.find(code);
    PM_CHECK(it != code_strings_.end())
        << "unpublished code " << code.ToString();
    const auto at = std::lower_bound(
        prev.by_code.begin(), prev.by_code.end(), it->second,
        [](const std::pair<std::string_view, int>& entry,
           std::string_view key) { return entry.first < key; });
    return static_cast<int>(at - prev.by_code.begin());
  };

  // Kept entries that leave (FI), and those that keep their place in code
  // order but take a new support and so a new place in support order.
  constexpr int kStays = -1;
  constexpr int kLeaves = -2;
  std::vector<int> new_support(kept, kStays);
  for (const PatternInfo& p : left.patterns()) {
    new_support[position(p.code)] = kLeaves;
  }
  for (const DfsCode& code : moved) {
    new_support[position(code)] = patterns.Find(code)->support;
  }
  for (const PatternInfo& p : left.patterns()) {
    const auto it = code_strings_.find(p.code);
    live_bytes_ -= it->second.size();
    code_strings_.erase(it);
  }

  // Entering codes (IF) are the only ones stringified. Sorted among
  // themselves, their text goes to the arena in code order and their
  // entries merge into the kept ones.
  struct Entering {
    std::string text;
    int support;
    const DfsCode* code;
    std::string_view view;
  };
  std::vector<Entering> entering;
  entering.reserve(entered.size());
  for (const PatternInfo& p : entered.patterns()) {
    entering.push_back({p.code.ToString(), p.support, &p.code, {}});
  }
  std::sort(entering.begin(), entering.end(),
            [](const Entering& a, const Entering& b) {
              return a.text < b.text;
            });
  for (Entering& entry : entering) {
    entry.view = arena_->Add(entry.text);
    live_bytes_ += entry.view.size();
    const auto [it, inserted] = code_strings_.emplace(*entry.code, entry.view);
    PM_CHECK(inserted) << "code published twice " << entry.text;
    entry.code = &it->first;
  }

  auto next = std::make_shared<Published>();
  next->ready = true;
  next->epoch = epoch_;
  next->resident_support = miner_->root_support();
  next->graph_count = db_.size();
  const int n = patterns.size();
  std::vector<std::pair<std::string_view, int>>& by_code = next->by_code;
  std::vector<const DfsCode*> codes;
  by_code.reserve(n);
  codes.reserve(n);
  // Where each kept entry lands in the new by_code, and the new positions
  // whose place in support order is not known yet.
  std::vector<int> kept_at(kept, -1);
  std::vector<int> resorted;
  resorted.reserve(moved.size() + entering.size());
  size_t e = 0;
  for (int i = 0; i <= kept; ++i) {
    while (e < entering.size() &&
           (i == kept || entering[e].view < prev.by_code[i].first)) {
      resorted.push_back(static_cast<int>(by_code.size()));
      by_code.emplace_back(entering[e].view, entering[e].support);
      codes.push_back(entering[e].code);
      ++e;
    }
    if (i == kept || new_support[i] == kLeaves) continue;
    kept_at[i] = static_cast<int>(by_code.size());
    if (new_support[i] == kStays) {
      by_code.push_back(prev.by_code[i]);
    } else {
      resorted.push_back(kept_at[i]);
      by_code.emplace_back(prev.by_code[i].first, new_support[i]);
    }
    codes.push_back(by_code_codes_[i]);
  }
  PM_CHECK_EQ(static_cast<int>(by_code.size()), n);
  by_code_codes_ = std::move(codes);

  // Once the text of codes that left outweighs the live text, the live
  // text moves to a fresh arena, in code order; older epochs keep theirs.
  if (arena_->bytes() > 2 * live_bytes_) {
    const std::shared_ptr<const CodeArena> old = std::move(arena_);
    arena_ = std::make_shared<CodeArena>();
    for (int i = 0; i < n; ++i) {
      by_code[i].first = arena_->Add(by_code[i].first);
      code_strings_.find(*by_code_codes_[i])->second = by_code[i].first;
    }
  }
  next->arena = arena_;

  // Support order: the entries whose support is unchanged keep their
  // relative order; the moved and entering ones are sorted and merged in.
  const auto before = [&](int a, int b) {
    if (by_code[a].second != by_code[b].second) {
      return by_code[a].second > by_code[b].second;
    }
    return by_code_codes_[a]->Compare(*by_code_codes_[b]) < 0;
  };
  std::vector<int> still;
  still.reserve(n);
  for (const int i : prev.by_support) {
    if (new_support[i] == kStays) still.push_back(kept_at[i]);
  }
  std::sort(resorted.begin(), resorted.end(), before);
  next->by_support.resize(n);
  std::merge(still.begin(), still.end(), resorted.begin(), resorted.end(),
             next->by_support.begin(), before);
  next->digest = DigestSorted(by_code);

  epoch_digests_[epoch_ % kDigestWindow] = {epoch_, next->digest};
  PM_METRIC_GAUGE("service.epoch")->Set(static_cast<int64_t>(epoch_));
  PM_METRIC_GAUGE("service.patterns")->Set(n);
  const Frontier& frontier = miner_->root_frontier().map;
  PM_METRIC_GAUGE("partminer.frontier.entries")
      ->Set(static_cast<int64_t>(frontier.size()));
  PM_METRIC_GAUGE("partminer.frontier.bytes")
      ->Set(static_cast<int64_t>(frontier.Bytes()));
  std::shared_ptr<const Published> previous = std::move(next);
  {
    std::lock_guard<std::mutex> lock(published_mu_);
    published_.swap(previous);
  }
  // The previous epoch is freed here, outside the pointer lock, unless a
  // reader still holds it.
}

void MinerSession::PublishMinedLocked() {
  epoch_ = 0;
  epoch_digests_.assign(kDigestWindow, {});
  code_strings_.clear();
  by_code_codes_.clear();
  arena_ = std::make_shared<CodeArena>();
  live_bytes_ = 0;
  PublishLocked(Published(), miner_->patterns(), PatternSet(), {});
}

Status MinerSession::Init(GraphDatabase db) {
  if (db.empty()) return Status::InvalidArgument("empty database");
  std::unique_lock lock(mu_);
  db_ = std::move(db);
  miner_ = std::make_unique<PartMiner>(options_.miner);
  miner_->Mine(db_);
  PublishMinedLocked();
  return Status::Ok();
}

Status MinerSession::InitFromSnapshot(const std::string& path) {
  std::unique_lock lock(mu_);
  if (injector_ != nullptr &&
      injector_->ShouldFail(FaultInjector::Op::kRead)) {
    return RecordInjectedFault(FaultInjector::Op::kRead,
                               "reading snapshot " + path);
  }
  GraphDatabase db;
  PartMinerOptions options = options_.miner;
  PARTMINER_RETURN_IF_ERROR_CTX(
      ReadSnapshotFile(path, &db, &options.min_support_count),
      "restoring snapshot");
  // Mined at the saved support, not the configured one, so the restored
  // pattern set is the one the snapshot's epoch held.
  auto miner = std::make_unique<PartMiner>(options);
  miner->Mine(db);
  db_ = std::move(db);
  miner_ = std::move(miner);
  PublishMinedLocked();
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
    const IncPartMinerResult round = inc_.ApplyRound(miner_.get(), db_, log);
    ++epoch_;
    Stopwatch publish_watch;
    PublishLocked(*published_, round.if_, round.fi, round.changed);
    PM_METRIC_HISTOGRAM("service.publish_ms")
        ->Observe(publish_watch.ElapsedMillis());
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
      const auto& [code, code_support] = by_code[pub->by_support[r]];
      reply->patterns.emplace_back(code, code_support);
    }
  }

  if (!request.pattern_text.empty()) {
    reply->has_containment = true;
    GraphDatabase pattern_db;
    PARTMINER_RETURN_IF_ERROR_CTX(ReadGraphDatabase(request.pattern_text,
                                                    &pattern_db),
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
        [](const std::pair<std::string_view, int>& entry,
           const std::string& key) { return entry.first < key; });
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
  // Copy the database under the lock and write it without: the next batch
  // apply waits for the copy, not for the disk.
  GraphDatabase db;
  int support = 0;
  {
    std::shared_lock lock(mu_);
    if (miner_ == nullptr) return NotInitialized();
    if (prefix.empty()) {
      return Status::InvalidArgument("empty snapshot prefix");
    }
    result->epoch = epoch_;
    db = db_;
    support = miner_->root_support();
  }
  result->db_path = prefix + ".db.lg";
  // One injector consultation per snapshot, mirroring the DiskManager
  // hook: a scripted write fault fails this snapshot cleanly, leaves the
  // previous file as it was, and the next attempt succeeds.
  if (injector_ != nullptr &&
      injector_->ShouldFail(FaultInjector::Op::kWrite)) {
    return RecordInjectedFault(FaultInjector::Op::kWrite,
                               "writing " + result->db_path);
  }
  PARTMINER_RETURN_IF_ERROR_CTX(
      WriteSnapshotFile(db, support, result->db_path), "writing snapshot");
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

FrontierHealth MinerSession::FrontierCounts() const {
  std::shared_lock lock(mu_);
  FrontierHealth health;
  // Every write publishes before it releases the lock: the current epoch
  // is the resident state's.
  health.published = Current();
  if (miner_ == nullptr) return health;
  const Frontier& frontier = miner_->root_frontier().map;
  health.entries = static_cast<int64_t>(frontier.size());
  health.bytes = static_cast<int64_t>(frontier.Bytes());
  health.dead_entries = static_cast<int64_t>(frontier.CountDead());
  PM_METRIC_GAUGE("partminer.frontier.dead_entries")->Set(health.dead_entries);
  return health;
}

}  // namespace service
}  // namespace partminer
