#ifndef PARTMINER_SERVICE_DAEMON_H_
#define PARTMINER_SERVICE_DAEMON_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/timing.h"
#include "service/json.h"
#include "service/session.h"

namespace partminer {
namespace service {

/// Client-side encoder for one edit, the exact inverse of the daemon's
/// request parser. Shared by loadgen, the fault sweep, and the protocol
/// tests so encoder and decoder stay adjacent.
Json EditToJson(const EditOp& op);

struct DaemonOptions {
  /// Backpressure bound: total edits sitting in the update queue (enqueued
  /// but not yet applied). An update that would push past the cap is
  /// rejected with an `overloaded` error instead of growing the queue.
  int queue_cap_edits = 4096;
  /// Coalescing bound: the batcher drains up to this many edits from the
  /// queue into one IncPartMiner round, amortizing the phase-A re-mine
  /// across every waiting client.
  int batch_max_edits = 256;
  /// Default snapshot path prefix for `snapshot` requests without `path`.
  std::string snapshot_prefix;
  /// Slow-request log threshold in milliseconds; 0 disables. A request whose
  /// HandleLine wall time exceeds this is logged at Warning and recorded as
  /// a kSlowRequest flight event.
  double slow_ms = 0;
};

/// The partminerd request engine: newline-delimited JSON in, one JSON
/// response line out per request (DESIGN.md section 12 specifies the
/// protocol). Transport-agnostic — HandleLine is the whole protocol, and
/// the stdio/unix-socket servers are thin line pumps around it, which is
/// also what makes the protocol table-testable in-process.
///
/// Threading: any number of threads may call HandleLine concurrently (one
/// per client connection). Queries and the operator verbs (ping, sync,
/// health, metrics) run on the calling thread against one published epoch
/// of the session, loaded once per request and never waiting on a batch
/// apply; updates are enqueued into the bounded queue and applied by the
/// single internal batcher thread, which coalesces adjacent batches up to
/// batch_max_edits per IncPartMiner round.
class Daemon {
 public:
  Daemon(MinerSession* session, const DaemonOptions& options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Processes one request line, returning the response line (no trailing
  /// newline). Never throws and never aborts: malformed input produces a
  /// structured error response. `shutdown` is set when the request asked
  /// the daemon to stop.
  std::string HandleLine(const std::string& line, bool* shutdown);

  /// Serves one client over an iostream pair (--stdio mode, and the
  /// in-process golden tests). Returns on EOF or `shutdown`.
  void ServeStream(std::istream& in, std::ostream& out);

  /// Unix-domain-socket server: accepts connections on `path` (unlinking
  /// any stale socket file first), one thread per connection, until a
  /// `shutdown` request or Stop(). Pending updates are drained before
  /// returning.
  Status ServeUnixSocket(const std::string& path);

  /// Asks the server loops to stop (thread-safe, idempotent).
  void Stop();

  /// Blocks until every update enqueued before the call has been applied
  /// (or dropped by a failed batch). Used by `sync` and by shutdown drain.
  void WaitQueueDrained();

  int queue_depth_edits() const;

 private:
  struct PendingBatch {
    uint64_t seq = 0;
    /// Lifecycle id of the request that enqueued this batch (flight events
    /// carry it so a slow round can be matched back to its admission).
    uint64_t request_id = 0;
    /// Started at admission; read at dequeue (queue wait) and after apply
    /// (whole update pipeline: queue wait + coalesce + phase A + phase B).
    Stopwatch queued;
    std::vector<EditOp> edits;
    /// Set for wait:true updates; fulfilled with the response fragment
    /// after the batch (coalesced with its neighbors) is applied.
    std::shared_ptr<std::promise<std::pair<Status, BatchResult>>> done;
  };

  void BatcherLoop();
  void ServeConnection(int fd);
  std::string HandleUpdate(const Json& request, const Json* id,
                           uint64_t request_id);
  std::string HandleQuery(const Json& request, const Json* id);
  /// Operator health summary: "starting" until the session is ready,
  /// "overloaded" at >= 80% queue occupancy, "degraded" (sticky) after a
  /// dropped batch or failed snapshot write, else "serving". `pub` is the
  /// request's published epoch.
  std::string HealthState(const Published& pub);

  MinerSession* session_;
  DaemonOptions options_;
  const std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();

  /// Monotonic per-request id, assigned on entry to HandleLine; appears in
  /// trace spans, flight events and the slow-request log.
  std::atomic<uint64_t> next_request_id_{0};
  /// Sticky degraded flag (see HealthState).
  std::atomic<bool> degraded_{false};

  mutable std::mutex qmu_;
  std::condition_variable queue_cv_;    // Batcher wakeup.
  std::condition_variable drained_cv_;  // Sync / drain waiters.
  std::deque<PendingBatch> queue_;
  int queued_edits_ = 0;
  /// Highest queue occupancy seen (edits); exported as the
  /// service.queue_high_water gauge. high_water_logged_ is the occupancy at
  /// the last kQueueHighWater flight event — a new event fires only when
  /// the high water doubles, so a steadily climbing queue logs O(log n)
  /// events instead of one per enqueue.
  int high_water_ = 0;
  int high_water_logged_ = 0;
  uint64_t next_seq_ = 1;
  bool applying_ = false;
  bool stopping_ = false;

  std::thread batcher_;

  std::mutex conn_mu_;
  std::vector<int> conn_fds_;
  int listen_fd_ = -1;
};

}  // namespace service
}  // namespace partminer

#endif  // PARTMINER_SERVICE_DAEMON_H_
