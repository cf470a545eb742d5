// service_mixed: an open-loop request stream against a spawned partminerd
// (k=2) over its Unix socket. One writer sends `update` with wait:true at a
// fixed rate; three readers send `query` at a fixed rate. Latency is timed
// from each request's due time, so a stall also counts against the requests
// queued behind it.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <thread>

#include "common/parse.h"
#include "datagen/edit_stream.h"
#include "graph/graph_io.h"
#include "service/daemon.h"
#include "service/json.h"
#include "util.h"

namespace pmbench {

using namespace partminer;
using service::Json;

namespace {

// Offered load, well below what the daemon sustains at this size: one
// update (4 edits) every 250 ms and 100 queries/s on each reader.
constexpr double kUpdatesPerSecond = 4;
constexpr double kQueriesPerSecondPerReader = 100;
constexpr int kReaders = 3;
constexpr int kReplyTimeoutMs = 30000;

/// One blocking client connection with a reply timeout, so a wedged daemon
/// fails the run instead of hanging it.
class Conn {
 public:
  Conn() = default;
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0 || path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool RoundTrip(const std::string& line, std::string* reply) {
    const std::string out = line + "\n";
    for (size_t sent = 0; sent < out.size();) {
      const ssize_t n =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    // Busy-poll for the first 0.3 ms: a blocked reader's wake-up costs tens
    // of microseconds of scheduler jitter, as much as a whole query. Longer
    // spinning would take hyperthreads from the daemon itself.
    const Clock::time_point sent = Clock::now();
    size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        buffer_.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) return false;
      if (MsSince(sent) < 0.3) continue;
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, kReplyTimeoutMs) <= 0) return false;
    }
    *reply = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return true;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// A spawned partminerd; killed and reaped on destruction if still running.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& binary, std::vector<std::string> args) {
    args.insert(args.begin(), binary);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      // The benchmark's stdout carries its result; keep the daemon off it.
      const int null_fd = ::open("/dev/null", O_WRONLY);
      if (null_fd >= 0) ::dup2(null_fd, STDOUT_FILENO);
      ::execv(binary.c_str(), argv.data());
      std::fprintf(stderr, "error: exec %s: %s\n", binary.c_str(),
                   std::strerror(errno));
      ::_exit(127);
    }
  }
  ~DaemonProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  pid_t pid() const { return pid_; }
  bool Exited() {
    int status = 0;
    if (pid_ > 0 && ::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return true;
    }
    return pid_ <= 0;
  }
  /// Sends `shutdown` over `conn` and waits up to 20 s for a clean exit.
  bool Shutdown(Conn* conn) {
    std::string reply;
    conn->RoundTrip("{\"id\":\"bye\",\"cmd\":\"shutdown\"}", &reply);
    for (int i = 0; i < 2000; ++i) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      ::usleep(10 * 1000);
    }
    return false;
  }

 private:
  pid_t pid_ = -1;
};

/// Parses `reply` and returns its "result" object when ok:true, else null.
const Json* OkResult(const std::string& reply, Json* parsed) {
  if (!Json::Parse(reply, parsed).ok() || !parsed->is_object()) return nullptr;
  const Json* ok = parsed->Get("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->AsBool()) return nullptr;
  return parsed->Get("result");
}

/// Spawns the daemon and waits for the first good ping; returns the
/// seconds it took, or a negative value when the daemon never served.
double SpawnAndPing(std::unique_ptr<DaemonProcess>* daemon,
                    std::unique_ptr<Conn>* conn, const std::string& binary,
                    const std::vector<std::string>& args,
                    const std::string& socket, Json* ping) {
  ::unlink(socket.c_str());
  const Clock::time_point start = Clock::now();
  *daemon = std::make_unique<DaemonProcess>(binary, args);
  while (MsSince(start) < 120e3) {
    auto probe = std::make_unique<Conn>();
    std::string reply;
    if (probe->Connect(socket) &&
        probe->RoundTrip("{\"id\":\"ping\",\"cmd\":\"ping\"}", &reply) &&
        OkResult(reply, ping) != nullptr) {
      const double seconds = MsSince(start) / 1e3;
      *conn = std::move(probe);
      return seconds;
    }
    if ((*daemon)->Exited()) break;
    ::usleep(2000);
  }
  std::fprintf(stderr, "error: partminerd did not come up on %s\n",
               socket.c_str());
  return -1;
}

/// Registry of the daemon, as returned by the `metrics` verb.
struct Registry {
  Json root;
  double Counter(const char* name) const {
    const Json* c = Find("counters", name);
    return c != nullptr && c->is_number() ? c->AsDouble() : 0;
  }
  double Hist(const char* name, const char* field) const {
    const Json* h = Find("histograms", name);
    const Json* v = h != nullptr ? h->Get(field) : nullptr;
    return v != nullptr && v->is_number() ? v->AsDouble() : 0;
  }
  const Json* Find(const char* kind, const char* name) const {
    const Json* result = root.Get("result");
    const Json* registry = result ? result->Get("registry") : nullptr;
    const Json* section = registry ? registry->Get(kind) : nullptr;
    return section ? section->Get(name) : nullptr;
  }
};

bool FetchRegistry(Conn* conn, Registry* out) {
  std::string reply;
  return conn->RoundTrip("{\"id\":\"m\",\"cmd\":\"metrics\"}", &reply) &&
         OkResult(reply, &out->root) != nullptr;
}

std::string UpdateRequest(const StreamItem& item, int64_t id) {
  std::string line =
      "{\"id\":" + std::to_string(id) + ",\"cmd\":\"update\",\"wait\":true,"
      "\"edits\":[";
  for (size_t i = 0; i < item.edits.size(); ++i) {
    if (i > 0) line.push_back(',');
    line += service::EditToJson(item.edits[i]).Dump();
  }
  return line + "]}";
}

std::string QueryRequest(const StreamItem& item, int64_t id) {
  return "{\"id\":" + std::to_string(id) + ",\"cmd\":\"query\",\"support\":" +
         std::to_string(item.query_support) +
         ",\"limit\":" + std::to_string(item.query_limit) + "}";
}

/// What one client thread saw. Threads only touch their own instance.
struct ClientLog {
  Samples latency_ms;  // From due time to reply.
  Samples ref_latency_ms;  // The same at the reference host speed.
  Samples loops_ms;  // Reference loops timed by this client.
  // Writer: (ms since start, loop ms) of every reference loop, in order.
  std::vector<std::pair<double, double>> loop_at;
  std::vector<double> due_ms;  // Readers: due time of each timed request.
  Samples late_ms;     // Send time minus due time.
  int64_t attempted = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<uint64_t, uint64_t>> observed;  // (epoch, digest)
  std::vector<size_t> applied;  // Update items acknowledged, in send order.
  std::vector<uint64_t> epochs;  // Epoch of each acknowledged update.
};

/// Open loop: request j is due at start + offset + j * period; the thread
/// sleeps until then (or sends at once when behind) until the window ends.
/// Requests due during the warm-up are sent and checked but not timed.
/// `before_due`, when set, runs ahead of each due time (the writer times
/// reference loops there).
template <typename Send>
void RunSchedule(Clock::time_point start, double offset_ms, double period_ms,
                 double warmup_ms, double window_ms, ClientLog* log,
                 Send send, std::function<void()> before_due = nullptr) {
  for (int64_t j = 0;; ++j) {
    const double due_ms = offset_ms + j * period_ms;
    if (due_ms >= window_ms) return;
    const Clock::time_point due =
        start + std::chrono::microseconds(static_cast<int64_t>(due_ms * 1e3));
    // A client already behind schedule sends at once; the hook would only
    // add its own time to the request's latency.
    if (before_due && Clock::now() < due - std::chrono::milliseconds(20)) {
      std::this_thread::sleep_until(due - std::chrono::milliseconds(20));
      before_due();
    }
    // Sleep, then spin the last 0.2 ms: sleep_until alone oversleeps by
    // ~0.1 ms, which would count against every request.
    std::this_thread::sleep_until(due - std::chrono::microseconds(200));
    while (Clock::now() < due) {
    }
    const bool measured = due_ms >= warmup_ms;
    if (measured) log->late_ms.Add(MsSince(due));
    ++log->attempted;
    if (!send(j, due, measured)) return;
  }
}

}  // namespace

int RunServiceMixed(const Config& config, Outcome* out) {
  if (config.daemon.empty()) {
    std::fprintf(stderr, "error: service_mixed needs --daemon\n");
    return 2;
  }
  const GraphDatabase db = MakeDatabase(config);
  const std::string db_path = config.workdir + "/service_mixed.db.lg";
  const std::string socket = config.workdir + "/partminerd.sock";
  {
    const Status written = WriteGraphDatabaseFile(db, db_path);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
  }
  std::vector<std::string> args = {"--input=" + db_path, "--socket=" + socket,
                                   "--support=0.04", "--k=2", "--threads=0"};
  if (config.trace) {
    args.push_back("--trace=" + config.workdir + "/partminerd.trace.json");
  }

  // Set-up: daemon spawn to the first good ping, five times; the last
  // daemon serves the workload.
  std::unique_ptr<DaemonProcess> daemon;
  std::unique_ptr<Conn> control;
  Json ping;
  for (int i = 0; i < 5; ++i) {
    if (daemon != nullptr && !daemon->Shutdown(control.get())) {
      std::fprintf(stderr, "error: partminerd did not shut down cleanly\n");
      return 1;
    }
    double seconds = -1;
    const Timed t = out->Time([&] {
      seconds =
          SpawnAndPing(&daemon, &control, config.daemon, args, socket, &ping);
    });
    if (seconds < 0) return 1;
    // The spawn-to-ping time itself, at the speed the loops around it saw.
    out->setup_s.Add(seconds * t.ref_ms / t.ms);
    out->AddTiming("setup", {seconds * 1e3, seconds * 1e3 * t.ref_ms / t.ms});
  }
  const Json* ping_result = ping.Get("result");
  const Json* resident = ping_result ? ping_result->Get("support") : nullptr;
  if (resident == nullptr || !resident->is_int()) {
    std::fprintf(stderr, "error: malformed ping reply\n");
    return 1;
  }
  // Streams. Updates: 4-edit batches of a GenerateEditStream draw; queries:
  // support and limit drawn as loadgen does.
  //
  // The writer sends add_edge and add_vertex edits only. With relabels in
  // the stream, the daemon's state drifts from an exact mine over a long
  // run: on about one seed in six, after 18 to 82 relabel-bearing rounds,
  // a pattern that newly reaches the threshold is missing, though one round
  // from a fresh mine of the same database finds it. That fails the oracle
  // check whatever the code's speed; update_rounds still measures relabels,
  // each round from a fresh base state.
  const double warmup_ms = std::min(2.0, config.seconds / 4) * 1e3;
  const double window_ms = warmup_ms + config.seconds * 1e3;
  const size_t update_count =
      static_cast<size_t>(window_ms / 1e3 * kUpdatesPerSecond) + 2;
  EditStreamOptions stream;
  stream.seed = config.Derived(1);
  stream.requests = static_cast<int>(update_count * 8 + 64);
  stream.update_fraction = 1.0;
  stream.edits_per_update = 4;
  stream.relabel_weight = 0;
  stream.num_labels = Config::kLabels;
  stream.resident_support = static_cast<int>(resident->AsInt());
  std::vector<StreamItem> updates;
  for (StreamItem& item : GenerateEditStream(db, stream)) {
    if (item.is_update && item.edits.size() == 4) {
      updates.push_back(std::move(item));
    }
  }
  stream.seed = config.Derived(2);
  stream.update_fraction = 0;
  stream.requests = static_cast<int>(window_ms / 1e3 * kReaders *
                                     kQueriesPerSecondPerReader) +
                    kReaders;
  const std::vector<StreamItem> queries = GenerateEditStream(db, stream);

  // Host speed for the whole run: reference loops while the daemon is idle,
  // here and again after the final sync. Loops timed during the window
  // would compete with the daemon and so measure the program as well.
  Samples idle_loops;
  for (int i = 0; i < 25; ++i) idle_loops.Add(ReferenceLoopMs());

  std::vector<ClientLog> logs(kReaders + 1);
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    ClientLog* log = &logs[0];
    Conn conn;
    if (!conn.Connect(socket)) {
      log->failures.push_back("writer: connect failed");
      return;
    }
    // Each update is timed between two reference loops, run while no
    // update is in flight: one shortly before it is due, one after the ack.
    const double period = 1e3 / kUpdatesPerSecond;
    double loop_before = kReferenceMs;
    RunSchedule(start, period / 2, period, warmup_ms, window_ms, log,
                [&](int64_t j, Clock::time_point due, bool measured) {
      if (static_cast<size_t>(j) >= updates.size()) return false;
      std::string reply;
      if (!conn.RoundTrip(UpdateRequest(updates[j], j), &reply)) {
        log->failures.push_back("writer: connection lost");
        return false;
      }
      const double ms = MsSince(due);
      const double loop_after = ReferenceLoopMs();
      log->loop_at.emplace_back(MsSince(start), loop_after);
      if (measured) {
        log->latency_ms.Add(ms);
        log->ref_latency_ms.Add(ms * kReferenceMs * 2 /
                                (loop_before + loop_after));
        log->loops_ms.Add(loop_before);
        log->loops_ms.Add(loop_after);
      }
      Json parsed;
      const Json* result = OkResult(reply, &parsed);
      const Json* epoch = result ? result->Get("epoch") : nullptr;
      const Json* applied = result ? result->Get("applied") : nullptr;
      const Json* rejected = result ? result->Get("rejected") : nullptr;
      if (epoch == nullptr || !epoch->is_int() || applied == nullptr ||
          applied->AsInt() != 4 || rejected == nullptr ||
          rejected->AsInt() != 0) {
        log->failures.push_back("update " + std::to_string(j) + ": " +
                                reply.substr(0, 200));
        return true;
      }
      log->applied.push_back(static_cast<size_t>(j));
      log->epochs.push_back(static_cast<uint64_t>(epoch->AsInt()));
      return true;
    }, [&] {
      loop_before = ReferenceLoopMs();
      log->loop_at.emplace_back(MsSince(start), loop_before);
    });
  });
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      ClientLog* log = &logs[r + 1];
      Conn conn;
      if (!conn.Connect(socket)) {
        log->failures.push_back("reader: connect failed");
        return;
      }
      const double period = 1e3 / kQueriesPerSecondPerReader;
      uint64_t last_epoch = 0;
      RunSchedule(start, period * r / kReaders, period, warmup_ms, window_ms,
                  log, [&](int64_t j, Clock::time_point due, bool measured) {
        const size_t index =
            static_cast<size_t>(j * kReaders + r) % queries.size();
        std::string reply;
        if (!conn.RoundTrip(QueryRequest(queries[index], j), &reply)) {
          log->failures.push_back("reader: connection lost");
          return false;
        }
        if (measured) {
          log->latency_ms.Add(MsSince(due));
          log->due_ms.push_back(
              std::chrono::duration<double, std::milli>(due - start).count());
        }
        Json parsed;
        const Json* result = OkResult(reply, &parsed);
        const Json* epoch = result ? result->Get("epoch") : nullptr;
        const Json* digest = result ? result->Get("digest") : nullptr;
        uint64_t digest_value = 0;
        if (epoch == nullptr || !epoch->is_int() || digest == nullptr ||
            !digest->is_string() ||
            !ParseUint64(digest->AsString(), &digest_value)) {
          log->failures.push_back("query: " + reply.substr(0, 200));
          return true;
        }
        const uint64_t e = static_cast<uint64_t>(epoch->AsInt());
        if (e < last_epoch) {
          log->failures.push_back("query: epoch went backwards");
        }
        last_epoch = e;
        log->observed.emplace_back(e, digest_value);
        return true;
      });
    });
  }
  // The daemon's registry at the end of the warm-up is the baseline of
  // every per-layer delta below.
  const Clock::time_point measured_start =
      start + std::chrono::microseconds(static_cast<int64_t>(warmup_ms * 1e3));
  std::this_thread::sleep_until(measured_start);
  Registry before;
  const bool have_baseline = FetchRegistry(control.get(), &before);
  if (config.trace) SpanLog::Get().Enable();
  for (std::thread& t : threads) t.join();
  const double run_ms = MsSince(measured_start);

  // Drain, then read the daemon's final state and registry.
  std::string reply;
  Json sync;
  const Json* sync_result = nullptr;
  {
    Span span("sync");
    if (control->RoundTrip("{\"id\":\"sync\",\"cmd\":\"sync\"}", &reply)) {
      sync_result = OkResult(reply, &sync);
    }
  }
  for (int i = 0; i < 25; ++i) idle_loops.Add(ReferenceLoopMs());
  for (const double v : logs[0].loops_ms.Values()) idle_loops.Add(v);
  for (const double v : idle_loops.Values()) out->reference_loop_ms.Add(v);
  // The run's host speed from every loop timed while no update was
  // applying; queries fall back to it when the writer timed no loop.
  const double speed = kReferenceMs / idle_loops.Median();
  Registry after;
  bool have_registry = false;
  {
    Span span("metrics");
    have_registry = FetchRegistry(control.get(), &after);
  }
  out->peak_rss_mb = PeakRssMb(daemon->pid());
  {
    Span span("shutdown");
    if (!daemon->Shutdown(control.get())) {
      out->Fail("partminerd did not shut down cleanly");
    }
  }
  daemon.reset();

  // Correctness: per-connection failures, one digest per epoch across all
  // connections, consecutive epochs on the writer, and the final digest
  // against gSpan on the database rebuilt from the edits the writer sent.
  std::map<uint64_t, uint64_t> digest_of;
  Samples late_all;
  for (ClientLog& log : logs) {
    out->attempted += log.attempted;
    for (const std::string& f : log.failures) out->Fail(f);
    for (const auto& [epoch, digest] : log.observed) {
      const auto [it, inserted] = digest_of.emplace(epoch, digest);
      if (!inserted && it->second != digest) {
        out->Fail("epoch " + std::to_string(epoch) +
                  " observed with two digests");
      }
    }
  }
  for (size_t i = 0; i < logs[0].epochs.size(); ++i) {
    if (logs[0].epochs[i] != i + 1) {
      out->Fail("update " + std::to_string(i) + " acknowledged at epoch " +
                std::to_string(logs[0].epochs[i]));
      break;
    }
  }
  Span oracle_span("oracle");
  GraphDatabase local = db;
  for (const size_t j : logs[0].applied) {
    UpdateLog ignored;
    if (ApplyEditBatch(&local, updates[j].edits, &ignored).rejected != 0) {
      out->Fail("local replay rejected an edit of update " +
                std::to_string(j));
    }
  }
  const Json* final_digest = sync_result ? sync_result->Get("digest") : nullptr;
  uint64_t daemon_digest = 0;
  double gspan_seconds = 0;
  const uint64_t expected = GSpanDigest(local, &gspan_seconds);
  if (final_digest == nullptr || !final_digest->is_string() ||
      !ParseUint64(final_digest->AsString(), &daemon_digest) ||
      daemon_digest != expected) {
    out->Fail("final daemon digest differs from gSpan on the replayed edits");
  }
  const auto seen = digest_of.find(logs[0].epochs.empty()
                                       ? 0
                                       : logs[0].epochs.back());
  if (seen != digest_of.end() && seen->second != daemon_digest) {
    out->Fail("last observed epoch digest differs from the final digest");
  }
  if (!have_registry || !have_baseline) out->Fail("metrics verb failed");

  // Timings.
  const std::vector<double>& update_ms = logs[0].latency_ms.Values();
  for (size_t k = 0; k < update_ms.size(); ++k) {
    const double ref = logs[0].ref_latency_ms.Values()[k];
    out->AddTiming("update_applied", {update_ms[k], ref});
    out->secondary_ms.Add(ref);
  }
  // The gated query number is the p99, not the median: a median query
  // (~0.03 ms) is mostly scheduler wake-up, which on a shared host moved
  // run medians by up to 2x at the same loop speed. The p99 is a query that
  // waited behind a batch apply, CPU work that the host-speed scaling
  // tracks. (The mean is no steadier: the share of queries that wait grows
  // with the raw apply time, so the scaled mean still follows host speed.)
  //
  // Each query is scaled by the writer's two reference loops around its due
  // time, so a query that waits behind a batch apply takes that update's
  // own bracket.
  const std::vector<std::pair<double, double>>& loop_at = logs[0].loop_at;
  const auto local_speed = [&](double due_ms) {
    if (loop_at.empty()) return speed;
    const auto after = std::lower_bound(loop_at.begin(), loop_at.end(),
                                        std::make_pair(due_ms, 0.0));
    if (after == loop_at.begin()) return kReferenceMs / after->second;
    if (after == loop_at.end()) return kReferenceMs / loop_at.back().second;
    return kReferenceMs * 2 / (std::prev(after)->second + after->second);
  };
  Samples query_ref_ms;
  for (size_t i = 0; i < logs.size(); ++i) {
    const std::vector<double>& query_ms = logs[i].latency_ms.Values();
    for (size_t k = 0; i > 0 && k < query_ms.size(); ++k) {
      const double ref = query_ms[k] * local_speed(logs[i].due_ms[k]);
      out->AddTiming("query", {query_ms[k], ref});
      query_ref_ms.Add(ref);
    }
    for (const double v : logs[i].late_ms.Values()) {
      late_all.Add(v);
      out->Timing("service.generator_late").Add(v);
    }
  }
  if (query_ref_ms.n() > 0) out->primary_ms.Add(query_ref_ms.Quantile(0.99));
  out->threads = kReaders + 1;
  out->rates["update_per_s"] = kUpdatesPerSecond;
  out->rates["query_per_s"] = kReaders * kQueriesPerSecondPerReader;

  // Per-layer numbers from the daemon's registry (deltas over the run).
  const auto delta_count = [&](const char* h) {
    return after.Hist(h, "count") - before.Hist(h, "count");
  };
  const auto delta_mean = [&](const char* h) {
    const double n = delta_count(h);
    return n > 0 ? (after.Hist(h, "sum") - before.Hist(h, "sum")) / n : 0;
  };
  const auto delta_counter = [&](const char* c) {
    return after.Counter(c) - before.Counter(c);
  };
  std::map<std::string, double>& layer = out->layer;
  layer["service.verb_query_p50_ms"] =
      after.Hist("service.verb.query_ms", "p50");
  layer["service.verb_query_p99_ms"] =
      after.Hist("service.verb.query_ms", "p99");
  layer["service.sock_read_ms"] = delta_mean("service.sock_read_ms");
  layer["service.reply_write_ms"] = delta_mean("service.reply_write_ms");
  layer["service.batch_apply_p50_ms"] =
      after.Hist("service.batch_apply_ms", "p50");
  layer["service.batch_apply_p99_ms"] =
      after.Hist("service.batch_apply_ms", "p99");
  layer["service.queue_wait_ms"] = delta_mean("service.queue_wait_ms");
  layer["service.phase_a_ms"] = delta_mean("service.phase_a_ms");
  layer["service.phase_b_ms"] = delta_mean("service.phase_b_ms");
  layer["service.edits_per_batch"] = delta_mean("service.batch_edits");
  layer["service.generator_late_p99_ms"] = late_all.Quantile(0.99);
  layer["service.batch_apply_share"] =
      run_ms > 0 ? (after.Hist("service.batch_apply_ms", "sum") -
                    before.Hist("service.batch_apply_ms", "sum")) /
                       run_ms
                 : 0;
  const double batches = delta_count("service.batch_apply_ms");
  if (batches > 0) {
    layer["graph.iso_subgraph_tests"] =
        delta_counter("iso.subgraph_tests") / batches;
    layer["core.merge_candidates_counted"] =
        delta_counter("merge.candidates_counted") / batches;
    layer["core.merge_candidates_skipped_known"] =
        delta_counter("merge.candidates_skipped_known") / batches;
    layer["core.merge_delta_recounts"] =
        delta_counter("merge.delta_recounts") / batches;
    layer["core.verify_graphs_examined"] =
        delta_counter("verify.graphs_examined") / batches;
  }
  if (!config.trace) return 0;
  out->Timing("miner.gspan_ref").Add(gspan_seconds * 1e3);

  // Tiles of one update request (client-observed, from its due time) and
  // of one query request.
  const double route = delta_mean("partminer.phase.route_ms");
  const double merge = delta_mean("partminer.phase.merge_ms");
  const double verify = delta_mean("partminer.phase.verify_ms");
  const double phase_a = delta_mean("service.phase_a_ms");
  out->op_wall_ms = out->Timing("update_applied").Mean();
  out->tiles = {{"service.generator_late", logs[0].late_ms.Mean()},
                {"service.queue_wait", delta_mean("service.queue_wait_ms")},
                {"service.phase_b", delta_mean("service.phase_b_ms")},
                {"partition.route", route},
                {"core.inc_root_merge", merge},
                {"core.verify", verify},
                {"service.phase_a_other", phase_a - route - merge - verify}};
  Samples reader_late;
  for (size_t i = 1; i < logs.size(); ++i) {
    for (const double v : logs[i].late_ms.Values()) reader_late.Add(v);
  }
  out->query_wall_ms = out->Timing("query").Mean();
  out->query_tiles = {
      {"service.generator_late", reader_late.Mean()},
      {"service.verb_query", delta_mean("service.verb.query_ms")},
      {"service.reply_write", delta_mean("service.reply_write_ms")}};
  return 0;
}

}  // namespace pmbench
