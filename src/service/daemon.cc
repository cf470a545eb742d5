#include "service/daemon.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <istream>
#include <ostream>

#include "common/logging.h"
#include "common/timing.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/json.h"

namespace partminer {
namespace service {

namespace {

/// A request line larger than this is rejected outright — backpressure
/// applies to bytes too, not just queued edits.
constexpr size_t kMaxLineBytes = 4u << 20;

const char* ErrorCodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk: return "ok";
    case Status::Code::kInvalidArgument: return "invalid_argument";
    case Status::Code::kIoError: return "io_error";
    case Status::Code::kCorruption: return "corruption";
    case Status::Code::kNotFound: return "not_found";
    case Status::Code::kOutOfRange: return "out_of_range";
    case Status::Code::kResourceExhausted: return "resource_exhausted";
  }
  return "internal";
}

/// Response envelope: {"id":...,}"ok":bool, then "result" or "error".
/// Field order is fixed so the protocol golden tests can pin exact bytes.
std::string RenderResponse(const Json* id, Json result) {
  Json response = Json::Object();
  if (id != nullptr) response.Set("id", *id);
  response.Set("ok", Json::Bool(true));
  response.Set("result", std::move(result));
  return response.Dump();
}

std::string RenderError(const Json* id, const std::string& code,
                        const std::string& message) {
  Json error = Json::Object();
  error.Set("code", Json::Str(code));
  error.Set("message", Json::Str(message));
  Json response = Json::Object();
  if (id != nullptr) response.Set("id", *id);
  response.Set("ok", Json::Bool(false));
  response.Set("error", std::move(error));
  PM_METRIC_COUNTER("service.errors")->Increment();
  return response.Dump();
}

std::string RenderStatusError(const Json* id, const Status& status) {
  return RenderError(id, ErrorCodeName(status.code()), status.message());
}

/// Reads a required integer field that must fit in `int`.
Status GetIntField(const Json& object, const char* key, int* out) {
  const Json* field = object.Get(key);
  if (field == nullptr) {
    return Status::InvalidArgument(std::string("missing field '") + key + "'");
  }
  if (!field->is_int()) {
    return Status::InvalidArgument(std::string("field '") + key +
                                   "' must be an integer");
  }
  const int64_t v = field->AsInt();
  if (v < INT32_MIN || v > INT32_MAX) {
    return Status::InvalidArgument(std::string("field '") + key +
                                   "' out of range");
  }
  *out = static_cast<int>(v);
  return Status::Ok();
}

Status ParseEdit(const Json& item, int graph_count, EditOp* op) {
  if (!item.is_object()) {
    return Status::InvalidArgument("edit must be an object");
  }
  const Json* kind = item.Get("kind");
  if (kind == nullptr || !kind->is_string()) {
    return Status::InvalidArgument("edit missing string field 'kind'");
  }
  const std::string& name = kind->AsString();
  PARTMINER_RETURN_IF_ERROR(GetIntField(item, "graph", &op->graph));
  // The update model never adds or removes database graphs, so the range
  // check needs no lock: graph_count is fixed for the session's lifetime.
  if (op->graph < 0 || op->graph >= graph_count) {
    return Status::InvalidArgument("field 'graph' out of range [0, " +
                                   std::to_string(graph_count) + ")");
  }
  int u = 0, v = 0, label = 0;
  if (name == "relabel") {
    op->kind = UpdateKind::kRelabel;
    PARTMINER_RETURN_IF_ERROR(GetIntField(item, "vertex", &u));
    PARTMINER_RETURN_IF_ERROR(GetIntField(item, "label", &label));
    op->u = u;
    op->label = label;
  } else if (name == "relabel_edge") {
    op->kind = UpdateKind::kRelabel;
    op->edge_target = true;
    PARTMINER_RETURN_IF_ERROR(GetIntField(item, "u", &u));
    PARTMINER_RETURN_IF_ERROR(GetIntField(item, "v", &v));
    PARTMINER_RETURN_IF_ERROR(GetIntField(item, "label", &label));
    op->u = u;
    op->v = v;
    op->label = label;
  } else if (name == "add_edge") {
    op->kind = UpdateKind::kAddEdge;
    PARTMINER_RETURN_IF_ERROR(GetIntField(item, "u", &u));
    PARTMINER_RETURN_IF_ERROR(GetIntField(item, "v", &v));
    PARTMINER_RETURN_IF_ERROR(GetIntField(item, "label", &label));
    op->u = u;
    op->v = v;
    op->label = label;
  } else if (name == "add_vertex") {
    op->kind = UpdateKind::kAddVertex;
    int vertex_label = 0, edge_label = 0;
    PARTMINER_RETURN_IF_ERROR(GetIntField(item, "attach", &u));
    PARTMINER_RETURN_IF_ERROR(GetIntField(item, "vertex_label",
                                          &vertex_label));
    PARTMINER_RETURN_IF_ERROR(GetIntField(item, "edge_label", &edge_label));
    op->u = u;
    op->label = vertex_label;
    op->edge_label = edge_label;
  } else {
    return Status::InvalidArgument(
        "unknown edit kind '" + name +
        "' (want relabel|relabel_edge|add_edge|add_vertex)");
  }
  if (op->label < 0 || op->edge_label < 0) {
    return Status::InvalidArgument("labels must be non-negative");
  }
  return Status::Ok();
}

/// Interned per-verb latency histogram names. Any verb outside the protocol
/// maps onto one shared "unknown" histogram so hostile clients cannot mint
/// unbounded metric names, and the registry lookup never allocates.
const char* VerbLatencyMetric(const std::string& command) {
  if (command == "ping") return "service.verb.ping_ms";
  if (command == "update") return "service.verb.update_ms";
  if (command == "query") return "service.verb.query_ms";
  if (command == "snapshot") return "service.verb.snapshot_ms";
  if (command == "metrics") return "service.verb.metrics_ms";
  if (command == "sync") return "service.verb.sync_ms";
  if (command == "health") return "service.verb.health_ms";
  if (command == "dump") return "service.verb.dump_ms";
  if (command == "shutdown") return "service.verb.shutdown_ms";
  return "service.verb.unknown_ms";
}

Json BatchResultJson(const BatchResult& result) {
  Json out = Json::Object();
  out.Set("epoch", Json::Number(static_cast<int64_t>(result.epoch)));
  out.Set("applied", Json::Number(static_cast<int64_t>(result.applied)));
  out.Set("rejected", Json::Number(static_cast<int64_t>(result.rejected)));
  if (result.rejected > 0) {
    out.Set("first_rejection", Json::Str(result.first_rejection));
  }
  out.Set("patterns", Json::Number(static_cast<int64_t>(result.patterns)));
  return out;
}

}  // namespace

Json EditToJson(const EditOp& op) {
  Json edit = Json::Object();
  switch (op.kind) {
    case UpdateKind::kRelabel:
      edit.Set("kind", Json::Str(op.edge_target ? "relabel_edge" : "relabel"));
      edit.Set("graph", Json::Number(static_cast<int64_t>(op.graph)));
      if (op.edge_target) {
        edit.Set("u", Json::Number(static_cast<int64_t>(op.u)));
        edit.Set("v", Json::Number(static_cast<int64_t>(op.v)));
      } else {
        edit.Set("vertex", Json::Number(static_cast<int64_t>(op.u)));
      }
      edit.Set("label", Json::Number(static_cast<int64_t>(op.label)));
      break;
    case UpdateKind::kAddEdge:
      edit.Set("kind", Json::Str("add_edge"));
      edit.Set("graph", Json::Number(static_cast<int64_t>(op.graph)));
      edit.Set("u", Json::Number(static_cast<int64_t>(op.u)));
      edit.Set("v", Json::Number(static_cast<int64_t>(op.v)));
      edit.Set("label", Json::Number(static_cast<int64_t>(op.label)));
      break;
    case UpdateKind::kAddVertex:
      edit.Set("kind", Json::Str("add_vertex"));
      edit.Set("graph", Json::Number(static_cast<int64_t>(op.graph)));
      edit.Set("attach", Json::Number(static_cast<int64_t>(op.u)));
      edit.Set("vertex_label", Json::Number(static_cast<int64_t>(op.label)));
      edit.Set("edge_label",
               Json::Number(static_cast<int64_t>(op.edge_label)));
      break;
  }
  return edit;
}

Daemon::Daemon(MinerSession* session, const DaemonOptions& options)
    : session_(session), options_(options) {
  PM_CHECK_GT(options_.queue_cap_edits, 0);
  PM_CHECK_GT(options_.batch_max_edits, 0);
  PM_METRIC_GAUGE("service.queue_cap")->Set(options_.queue_cap_edits);
  PM_METRIC_GAUGE("service.batch_max")->Set(options_.batch_max_edits);
  PM_METRIC_GAUGE("service.queue_depth")->Set(0);
  batcher_ = std::thread([this] { BatcherLoop(); });
}

Daemon::~Daemon() {
  Stop();
  if (batcher_.joinable()) batcher_.join();
}

void Daemon::BatcherLoop() {
  for (;;) {
    std::unique_lock<std::mutex> lock(qmu_);
    queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;  // Drained: every acked edit was applied.
      continue;
    }
    // Coalesce adjacent batches up to batch_max_edits into one incremental
    // round. The first batch is always taken so an oversized single batch
    // still makes progress.
    std::vector<PendingBatch> taken;
    int edits = 0;
    while (!queue_.empty() &&
           (taken.empty() ||
            edits + static_cast<int>(queue_.front().edits.size()) <=
                options_.batch_max_edits)) {
      edits += static_cast<int>(queue_.front().edits.size());
      taken.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    queued_edits_ -= edits;
    PM_METRIC_GAUGE("service.queue_depth")->Set(queued_edits_);
    applying_ = true;
    lock.unlock();

    // Queue wait ends at dequeue; the same stopwatch keeps running so the
    // post-apply reading is the whole update pipeline for that request.
    for (const PendingBatch& batch : taken) {
      PM_METRIC_HISTOGRAM("service.queue_wait_ms")
          ->Observe(batch.queued.ElapsedMillis());
    }
    Stopwatch coalesce_watch;
    std::vector<EditOp> combined;
    combined.reserve(edits);
    for (const PendingBatch& batch : taken) {
      combined.insert(combined.end(), batch.edits.begin(), batch.edits.end());
    }
    PM_METRIC_HISTOGRAM("service.coalesce_ms")
        ->Observe(coalesce_watch.ElapsedMillis());
    BatchResult result;
    Status status;
    {
      PM_TRACE_SPAN("batcher_round",
                    {{"edits", edits}, {"batches", taken.size()}});
      status = session_->ApplyBatch(combined, &result);
    }
    if (!status.ok()) {
      // Degrade, don't die: the batch is dropped, the failure is counted
      // and logged, waiters get the error, and the daemon keeps serving
      // (health reports "degraded" from here on — acked edits were lost).
      degraded_.store(true, std::memory_order_relaxed);
      PM_METRIC_COUNTER("service.batches_failed")->Increment();
      obs::FlightRecorder::Global().Record(
          obs::FlightEventType::kBatchFailed,
          static_cast<int64_t>(taken.front().seq), edits,
          static_cast<int64_t>(taken.size()), status.message().c_str());
      PM_LOG(Warning) << "service: dropped batch of " << edits
                      << " edits: " << status.ToString();
    } else {
      obs::FlightRecorder::Global().Record(
          obs::FlightEventType::kBatchApplied,
          static_cast<int64_t>(result.epoch), edits,
          static_cast<int64_t>(taken.size()));
    }
    PM_METRIC_COUNTER("service.batches_coalesced")
        ->Add(static_cast<int64_t>(taken.size()) - 1);
    for (PendingBatch& batch : taken) {
      PM_METRIC_HISTOGRAM("service.update_pipeline_ms")
          ->Observe(batch.queued.ElapsedMillis());
      if (batch.done) batch.done->set_value({status, result});
    }

    lock.lock();
    applying_ = false;
    const bool drained = queue_.empty();
    lock.unlock();
    if (drained) drained_cv_.notify_all();
  }
}

void Daemon::WaitQueueDrained() {
  std::unique_lock<std::mutex> lock(qmu_);
  drained_cv_.wait(lock, [this] { return queue_.empty() && !applying_; });
}

int Daemon::queue_depth_edits() const {
  std::lock_guard<std::mutex> lock(qmu_);
  return queued_edits_;
}

std::string Daemon::HandleLine(const std::string& line, bool* shutdown) {
  *shutdown = false;
  PM_METRIC_COUNTER("service.requests")->Increment();
  const uint64_t request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  Stopwatch watch;
  if (line.size() > kMaxLineBytes) {
    return RenderError(nullptr, "bad_request", "request line too large");
  }

  Json request;
  const Status parsed = Json::Parse(line, &request);
  if (!parsed.ok()) {
    return RenderError(nullptr, "bad_request", parsed.message());
  }
  if (!request.is_object()) {
    return RenderError(nullptr, "bad_request", "request must be an object");
  }
  const Json* id = request.Get("id");
  if (id != nullptr && !id->is_int() && !id->is_string()) {
    return RenderError(nullptr, "bad_request",
                       "field 'id' must be an integer or a string");
  }
  const Json* cmd = request.Get("cmd");
  if (cmd == nullptr || !cmd->is_string()) {
    return RenderError(id, "bad_request", "missing string field 'cmd'");
  }
  const std::string& command = cmd->AsString();
  obs::TraceSpan request_span("request");
  request_span.AddArg({"verb", command});
  request_span.AddArg({"id", static_cast<int64_t>(request_id)});

  std::string response;
  if (command == "ping") {
    const std::shared_ptr<const Published> pub = session_->Current();
    Json result = Json::Object();
    result.Set("epoch", Json::Number(static_cast<int64_t>(pub->epoch)));
    result.Set("graphs", Json::Number(static_cast<int64_t>(pub->graph_count)));
    result.Set("patterns",
               Json::Number(static_cast<int64_t>(pub->by_code.size())));
    result.Set("support",
               Json::Number(static_cast<int64_t>(pub->resident_support)));
    result.Set("queue_depth",
               Json::Number(static_cast<int64_t>(queue_depth_edits())));
    response = RenderResponse(id, std::move(result));
  } else if (command == "update") {
    response = HandleUpdate(request, id, request_id);
  } else if (command == "query") {
    response = HandleQuery(request, id);
  } else if (command == "snapshot") {
    const Json* path = request.Get("path");
    std::string prefix = options_.snapshot_prefix;
    if (path != nullptr) {
      if (!path->is_string()) {
        return RenderError(id, "invalid_argument",
                           "field 'path' must be a string");
      }
      prefix = path->AsString();
    }
    if (prefix.empty()) {
      return RenderError(id, "invalid_argument",
                         "no 'path' given and the daemon has no "
                         "--snapshot-prefix");
    }
    SnapshotResult snapshot;
    const Status status = session_->Snapshot(prefix, &snapshot);
    if (!status.ok()) {
      // A snapshot that failed past argument validation lost durability the
      // operator asked for: go (stickily) degraded and leave a flight event.
      if (status.code() != Status::Code::kInvalidArgument) {
        degraded_.store(true, std::memory_order_relaxed);
        obs::FlightRecorder::Global().Record(
            obs::FlightEventType::kSnapshotFailed,
            static_cast<int64_t>(session_->epoch()), 0, 0,
            status.message().c_str());
      }
      response = RenderStatusError(id, status);
    } else {
      Json result = Json::Object();
      result.Set("epoch", Json::Number(static_cast<int64_t>(snapshot.epoch)));
      result.Set("db_path", Json::Str(snapshot.db_path));
      response = RenderResponse(id, std::move(result));
    }
  } else if (command == "metrics") {
    // The registry pretty-prints with newlines; reparse so the splice stays
    // a single line (the protocol's framing unit).
    Json registry;
    const Status parsed_registry =
        Json::Parse(obs::MetricRegistry::Global().ToJson(), &registry);
    Json result = Json::Object();
    if (parsed_registry.ok()) {
      result.Set("registry", std::move(registry));
    } else {
      result.Set("registry", Json::Null());
    }
    const std::shared_ptr<const Published> pub = session_->Current();
    result.Set("queue_depth",
               Json::Number(static_cast<int64_t>(queue_depth_edits())));
    result.Set("epoch", Json::Number(static_cast<int64_t>(pub->epoch)));
    const int64_t uptime_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started_)
            .count();
    result.Set("uptime_ms", Json::Number(uptime_ms));
    result.Set("state", Json::Str(HealthState(*pub)));
    response = RenderResponse(id, std::move(result));
  } else if (command == "health") {
    const std::shared_ptr<const Published> pub = session_->Current();
    Json result = Json::Object();
    result.Set("state", Json::Str(HealthState(*pub)));
    result.Set("epoch", Json::Number(static_cast<int64_t>(pub->epoch)));
    result.Set("queue_depth",
               Json::Number(static_cast<int64_t>(queue_depth_edits())));
    result.Set("frontier_entries", Json::Number(pub->frontier_entries));
    result.Set("frontier_dead_entries",
               Json::Number(pub->frontier_dead_entries));
    response = RenderResponse(id, std::move(result));
  } else if (command == "dump") {
    // Reparse for the same reason as `metrics`: the dump must splice into
    // the single-line response framing.
    Json events;
    const Status parsed_dump =
        Json::Parse(obs::FlightRecorder::Global().ToJson(), &events);
    if (!parsed_dump.ok()) {
      response = RenderError(id, "internal",
                             "flight recorder dump failed to parse");
    } else {
      response = RenderResponse(id, std::move(events));
    }
  } else if (command == "sync") {
    WaitQueueDrained();
    const std::shared_ptr<const Published> pub = session_->Current();
    Json result = Json::Object();
    result.Set("epoch", Json::Number(static_cast<int64_t>(pub->epoch)));
    result.Set("digest", Json::Str(std::to_string(pub->digest)));
    response = RenderResponse(id, std::move(result));
  } else if (command == "shutdown") {
    *shutdown = true;
    Json result = Json::Object();
    result.Set("stopping", Json::Bool(true));
    response = RenderResponse(id, std::move(result));
  } else {
    response = RenderError(id, "unknown_command",
                           "unknown command '" + command + "'");
  }

  const double elapsed_ms = watch.ElapsedMillis();
  obs::MetricRegistry::Global()
      .GetHistogram("service.request_ms")
      ->Observe(elapsed_ms);
  // Note: per-verb handles cannot go through PM_METRIC_HISTOGRAM — the
  // macro's static handle would pin whichever verb arrived first.
  obs::MetricRegistry::Global()
      .GetHistogram(VerbLatencyMetric(command))
      ->Observe(elapsed_ms);
  if (options_.slow_ms > 0 && elapsed_ms > options_.slow_ms) {
    obs::FlightRecorder::Global().Record(
        obs::FlightEventType::kSlowRequest,
        static_cast<int64_t>(request_id),
        static_cast<int64_t>(elapsed_ms * 1e3), 0, command.c_str());
    PM_LOG(Warning) << "service: slow request id=" << request_id
                    << " verb=" << command << " took " << elapsed_ms
                    << " ms (threshold " << options_.slow_ms << " ms)";
  }
  return response;
}

std::string Daemon::HealthState(const Published& pub) {
  if (!pub.ready) return "starting";
  const int depth = queue_depth_edits();
  if (depth * 5 >= options_.queue_cap_edits * 4) return "overloaded";
  if (degraded_.load(std::memory_order_relaxed)) return "degraded";
  return "serving";
}

std::string Daemon::HandleUpdate(const Json& request, const Json* id,
                                 uint64_t request_id) {
  const Json* edits_field = request.Get("edits");
  if (edits_field == nullptr || !edits_field->is_array()) {
    return RenderError(id, "invalid_argument",
                       "update requires an array field 'edits'");
  }
  if (edits_field->items().empty()) {
    return RenderError(id, "invalid_argument", "'edits' must be non-empty");
  }
  const Json* wait_field = request.Get("wait");
  if (wait_field != nullptr && !wait_field->is_bool()) {
    return RenderError(id, "invalid_argument", "field 'wait' must be a bool");
  }
  const bool wait = wait_field != nullptr && wait_field->AsBool();

  const int graph_count = session_->graph_count();
  std::vector<EditOp> edits;
  edits.reserve(edits_field->items().size());
  for (size_t i = 0; i < edits_field->items().size(); ++i) {
    EditOp op;
    const Status status = ParseEdit(edits_field->items()[i], graph_count, &op);
    if (!status.ok()) {
      return RenderStatusError(
          id, status.WithContext("edits[" + std::to_string(i) + "]"));
    }
    edits.push_back(op);
  }

  PendingBatch batch;
  batch.edits = std::move(edits);
  std::future<std::pair<Status, BatchResult>> done;
  if (wait) {
    batch.done =
        std::make_shared<std::promise<std::pair<Status, BatchResult>>>();
    done = batch.done->get_future();
  }

  uint64_t seq = 0;
  int depth = 0;
  {
    std::lock_guard<std::mutex> lock(qmu_);
    if (stopping_) {
      return RenderError(id, "unavailable", "daemon is shutting down");
    }
    const int incoming = static_cast<int>(batch.edits.size());
    if (queued_edits_ + incoming > options_.queue_cap_edits) {
      PM_METRIC_COUNTER("service.overloaded")->Increment();
      obs::FlightRecorder::Global().Record(
          obs::FlightEventType::kRequestRejected,
          static_cast<int64_t>(request_id), incoming, queued_edits_,
          "overloaded");
      return RenderError(
          id, "overloaded",
          "update queue full (" + std::to_string(queued_edits_) + " of " +
              std::to_string(options_.queue_cap_edits) +
              " edits pending); retry later");
    }
    seq = next_seq_++;
    batch.seq = seq;
    batch.request_id = request_id;
    batch.queued.Restart();
    queued_edits_ += incoming;
    depth = queued_edits_;
    queue_.push_back(std::move(batch));
    PM_METRIC_GAUGE("service.queue_depth")->Set(queued_edits_);
    if (queued_edits_ > high_water_) {
      high_water_ = queued_edits_;
      PM_METRIC_GAUGE("service.queue_high_water")->Set(high_water_);
      // Log a flight event only when the high water doubles, so a climbing
      // queue leaves O(log cap) events rather than one per admission.
      if (high_water_logged_ == 0 || high_water_ >= 2 * high_water_logged_) {
        high_water_logged_ = high_water_;
        obs::FlightRecorder::Global().Record(
            obs::FlightEventType::kQueueHighWater, high_water_,
            options_.queue_cap_edits, 0);
      }
    }
  }
  obs::FlightRecorder::Global().Record(
      obs::FlightEventType::kRequestAdmitted,
      static_cast<int64_t>(request_id), static_cast<int64_t>(seq), depth);
  queue_cv_.notify_one();

  if (!wait) {
    Json result = Json::Object();
    result.Set("queued", Json::Bool(true));
    result.Set("seq", Json::Number(static_cast<int64_t>(seq)));
    result.Set("queue_depth", Json::Number(static_cast<int64_t>(depth)));
    return RenderResponse(id, std::move(result));
  }
  const std::pair<Status, BatchResult> applied = done.get();
  if (!applied.first.ok()) return RenderStatusError(id, applied.first);
  // Note: counts describe the coalesced round this batch was applied in.
  return RenderResponse(id, BatchResultJson(applied.second));
}

std::string Daemon::HandleQuery(const Json& request, const Json* id) {
  QueryRequest query;
  const Json* support = request.Get("support");
  if (support != nullptr) {
    if (!support->is_int() || support->AsInt() < 0 ||
        support->AsInt() > INT32_MAX) {
      return RenderError(id, "invalid_argument",
                         "field 'support' must be a non-negative integer");
    }
    query.support = static_cast<int>(support->AsInt());
  }
  const Json* limit = request.Get("limit");
  if (limit != nullptr) {
    if (!limit->is_int() || limit->AsInt() < -1 || limit->AsInt() > 1000000) {
      return RenderError(id, "invalid_argument",
                         "field 'limit' must be an integer in [-1, 1000000]");
    }
    query.limit = static_cast<int>(limit->AsInt());
  }
  const Json* pattern = request.Get("pattern");
  if (pattern != nullptr) {
    if (!pattern->is_string()) {
      return RenderError(id, "invalid_argument",
                         "field 'pattern' must be a gSpan-format string");
    }
    query.pattern_text = pattern->AsString();
  }

  QueryReply reply;
  const Status status = session_->Query(query, &reply);
  if (!status.ok()) return RenderStatusError(id, status);

  Json result = Json::Object();
  result.Set("epoch", Json::Number(static_cast<int64_t>(reply.epoch)));
  // Digests are 64-bit; JSON numbers are doubles, so ship them as strings.
  result.Set("digest", Json::Str(std::to_string(reply.digest)));
  result.Set("support", Json::Number(static_cast<int64_t>(reply.support)));
  result.Set("count", Json::Number(static_cast<int64_t>(reply.count)));
  if (query.limit != 0) {
    Json patterns = Json::Array();
    for (const auto& [code, pattern_support] : reply.patterns) {
      Json entry = Json::Object();
      entry.Set("code", Json::Str(code));
      entry.Set("support",
                Json::Number(static_cast<int64_t>(pattern_support)));
      patterns.Append(std::move(entry));
    }
    result.Set("patterns", std::move(patterns));
  }
  if (reply.has_containment) {
    result.Set("contained", Json::Bool(reply.contained));
    if (reply.contained) {
      result.Set("pattern_support",
                 Json::Number(static_cast<int64_t>(reply.pattern_support)));
    }
  }
  return RenderResponse(id, std::move(result));
}

void Daemon::ServeStream(std::istream& in, std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    bool shutdown = false;
    const std::string response = HandleLine(line, &shutdown);
    Stopwatch reply_watch;
    out << response << "\n";
    out.flush();
    PM_METRIC_HISTOGRAM("service.reply_write_ms")
        ->Observe(reply_watch.ElapsedMillis());
    if (shutdown) {
      Stop();
      WaitQueueDrained();
      return;
    }
  }
}

void Daemon::Stop() {
  bool first = false;
  {
    std::lock_guard<std::mutex> lock(qmu_);
    first = !stopping_;
    stopping_ = true;
  }
  if (first) {
    obs::FlightRecorder::Global().Record(obs::FlightEventType::kShutdown);
  }
  queue_cv_.notify_all();
  std::lock_guard<std::mutex> lock(conn_mu_);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
}

void Daemon::ServeConnection(int fd) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      bool shutdown = false;
      std::string response = HandleLine(line, &shutdown);
      response.push_back('\n');
      Stopwatch reply_watch;
      size_t sent = 0;
      while (sent < response.size()) {
        const ssize_t n = ::send(fd, response.data() + sent,
                                 response.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) return;
        sent += static_cast<size_t>(n);
      }
      PM_METRIC_HISTOGRAM("service.reply_write_ms")
          ->Observe(reply_watch.ElapsedMillis());
      if (shutdown) {
        Stop();
        return;
      }
    }
    if (buffer.size() > kMaxLineBytes) {
      bool ignored = false;
      std::string response =
          HandleLine(std::string(kMaxLineBytes + 1, ' '), &ignored);
      response.push_back('\n');
      (void)::send(fd, response.data(), response.size(), MSG_NOSIGNAL);
      return;
    }
    // Socket-read segment: includes blocking for the client's next byte,
    // so under a closed-loop client this is dominated by think time.
    Stopwatch read_watch;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return;
    PM_METRIC_HISTOGRAM("service.sock_read_ms")
        ->Observe(read_watch.ElapsedMillis());
    buffer.append(chunk, static_cast<size_t>(n));
  }
}

Status Daemon::ServeUnixSocket(const std::string& path) {
  if (path.size() + 1 > sizeof(sockaddr_un{}.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(path.c_str());
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError("bind " + path + ": " + std::strerror(errno));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    return Status::IoError("listen " + path + ": " + std::strerror(errno));
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    listen_fd_ = fd;
  }

  std::vector<std::thread> connections;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(qmu_);
      if (stopping_) break;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) continue;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      conn_fds_.push_back(conn);
    }
    PM_METRIC_COUNTER("service.connections")->Increment();
    connections.emplace_back([this, conn] { ServeConnection(conn); });
  }

  // Shutdown: every acked update is applied before the daemon exits.
  WaitQueueDrained();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const int conn : conn_fds_) ::shutdown(conn, SHUT_RDWR);
  }
  for (std::thread& t : connections) t.join();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const int conn : conn_fds_) ::close(conn);
    conn_fds_.clear();
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(path.c_str());
  return Status::Ok();
}

}  // namespace service
}  // namespace partminer
