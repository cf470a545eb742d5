// loadgen — replay seeded mixed update/query streams against partminerd.
//
//   loadgen --daemon=./partminerd [--input=db.lg] [--requests=10000]
//           [--clients=4] [--update-fraction=0.1] [--edits-per-update=4]
//           [--seed=1] [--support=0.1] [--queue-cap=4096] [--batch-max=256]
//           [--record=stream.txt | --replay=stream.txt]
//           [--out=BENCH.json] [--smoke]
//   loadgen --socket=/path/daemon.sock [...]     (drive an already-running
//                                                 daemon; no spawn/shutdown)
//
// Spawns (or connects to) a daemon, generates an interleaving-safe seeded
// workload over the same database the daemon loaded, drives it from
// --clients closed-loop connections, and verifies every response:
//   - every request line gets exactly one well-formed response echoing its id,
//   - updates are acknowledged or rejected with `overloaded` — nothing else,
//   - query (epoch, digest) pairs are globally consistent (two observations
//     of the same epoch always carry the same pattern-set digest) and epochs
//     are monotone per connection,
//   - the final metrics dump shows zero rejected edits (the generated stream
//     is valid under any interleaving) and a queue depth of zero.
// Reports sustained throughput and exact p50/p99 latency per request class,
// the daemon-side request lifecycle breakdown (queue wait, batch coalesce,
// phase-A re-mine, phase-B apply, reply write — DESIGN.md section 13),
// optionally as a bench_compare.py-compatible BENCH json block.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/parse.h"
#include "common/timing.h"
#include "datagen/edit_stream.h"
#include "datagen/generator.h"
#include "graph/graph_io.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/json.h"

namespace {

using namespace partminer;
using service::Json;
using service::LineClient;
using flags::DoubleFlag;
using flags::Get;
using flags::IntFlag;

std::string ItemToRequest(const StreamItem& item, int64_t id) {
  std::string line = "{\"id\":" + std::to_string(id);
  if (item.is_update) {
    line += ",\"cmd\":\"update\",\"edits\":[";
    for (size_t i = 0; i < item.edits.size(); ++i) {
      if (i > 0) line.push_back(',');
      line += service::EditToJson(item.edits[i]).Dump();
    }
    line += "]}";
  } else {
    line += ",\"cmd\":\"query\",\"support\":" +
            std::to_string(item.query_support) +
            ",\"limit\":" + std::to_string(item.query_limit) + "}";
  }
  return line;
}

struct WorkerStats {
  std::vector<double> query_ms;
  std::vector<double> update_ms;
  int overloaded = 0;
  int incorrect = 0;
  std::vector<std::string> complaints;  // First few, for the report.
  /// (epoch, digest) pairs observed by queries, in connection order.
  std::vector<std::pair<uint64_t, uint64_t>> observations;

  void Complain(int64_t id, const std::string& what,
                const std::string& response) {
    ++incorrect;
    if (complaints.size() < 5) {
      complaints.push_back("request " + std::to_string(id) + ": " + what +
                           " in " + response.substr(0, 200));
    }
  }
};

/// Closed-loop worker: items [first, items.size()) step `stride`, one
/// request in flight at a time, every response verified.
void RunWorker(const std::string& socket_path,
               const std::vector<StreamItem>& items, size_t first,
               size_t stride, WorkerStats* stats) {
  LineClient client;
  if (!client.Connect(socket_path)) {
    stats->Complain(-1, "connect failed", socket_path);
    return;
  }
  uint64_t last_epoch = 0;
  for (size_t i = first; i < items.size(); i += stride) {
    const StreamItem& item = items[i];
    const int64_t id = static_cast<int64_t>(i);
    const std::string request = ItemToRequest(item, id);
    Stopwatch watch;
    std::string response;
    if (!client.RoundTrip(request, &response)) {
      stats->Complain(id, "connection dropped", "");
      return;
    }
    const double ms = watch.ElapsedSeconds() * 1e3;
    (item.is_update ? stats->update_ms : stats->query_ms).push_back(ms);

    Json parsed;
    if (!Json::Parse(response, &parsed).ok() ||
        parsed.type() != Json::Type::kObject) {
      stats->Complain(id, "unparseable response", response);
      continue;
    }
    const Json* rid = parsed.Get("id");
    if (rid == nullptr || !rid->is_int() || rid->AsInt() != id) {
      stats->Complain(id, "id mismatch", response);
      continue;
    }
    const Json* ok = parsed.Get("ok");
    if (ok == nullptr || ok->type() != Json::Type::kBool) {
      stats->Complain(id, "missing 'ok'", response);
      continue;
    }

    if (item.is_update) {
      if (ok->AsBool()) {
        const Json* result = parsed.Get("result");
        const Json* queued = result ? result->Get("queued") : nullptr;
        if (queued == nullptr || !queued->AsBool()) {
          stats->Complain(id, "update ack without queued:true", response);
        }
      } else {
        // The only legitimate failure for a valid update is backpressure.
        const Json* error = parsed.Get("error");
        const Json* code = error ? error->Get("code") : nullptr;
        if (code != nullptr && code->is_string() &&
            code->AsString() == "overloaded") {
          ++stats->overloaded;
        } else {
          stats->Complain(id, "update rejected with non-overloaded error",
                          response);
        }
      }
    } else {
      if (!ok->AsBool()) {
        stats->Complain(id, "query failed", response);
        continue;
      }
      const Json* result = parsed.Get("result");
      const Json* epoch = result ? result->Get("epoch") : nullptr;
      const Json* digest = result ? result->Get("digest") : nullptr;
      const Json* count = result ? result->Get("count") : nullptr;
      uint64_t digest_value = 0;
      if (epoch == nullptr || !epoch->is_int() || count == nullptr ||
          !count->is_int() || digest == nullptr || !digest->is_string() ||
          !ParseUint64(digest->AsString(), &digest_value)) {
        stats->Complain(id, "malformed query result", response);
        continue;
      }
      const uint64_t e = static_cast<uint64_t>(epoch->AsInt());
      if (e < last_epoch) {
        stats->Complain(id, "epoch went backwards on one connection",
                        response);
      }
      last_epoch = e;
      stats->observations.emplace_back(e, digest_value);
    }
  }
}

struct Percentiles {
  double p50 = 0, p99 = 0, max = 0;
};

Percentiles ComputePercentiles(std::vector<double>* samples) {
  Percentiles result;
  if (samples->empty()) return result;
  std::sort(samples->begin(), samples->end());
  const auto at = [&](double q) {
    const size_t index = static_cast<size_t>(q * (samples->size() - 1));
    return (*samples)[index];
  };
  result.p50 = at(0.50);
  result.p99 = at(0.99);
  result.max = samples->back();
  return result;
}

pid_t SpawnDaemon(const std::string& binary,
                  const std::vector<std::string>& args) {
  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(binary.c_str(), argv.data());
    std::fprintf(stderr, "error: exec %s: %s\n", binary.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  return pid;
}

bool WaitForSocket(const std::string& path, pid_t daemon_pid,
                   double timeout_seconds) {
  Stopwatch watch;
  while (watch.ElapsedSeconds() < timeout_seconds) {
    LineClient probe;
    if (probe.Connect(path)) return true;
    if (daemon_pid > 0) {
      int wait_status = 0;
      if (::waitpid(daemon_pid, &wait_status, WNOHANG) == daemon_pid) {
        std::fprintf(stderr, "error: daemon exited before listening\n");
        return false;
      }
    }
    ::usleep(50 * 1000);
  }
  std::fprintf(stderr, "error: daemon socket %s never came up\n",
               path.c_str());
  return false;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: loadgen (--daemon=partminerd-path [--input=db.lg] |"
      " --socket=path --input=db.lg)\n"
      "  [--requests=10000] [--clients=4] [--update-fraction=0.1]\n"
      "  [--edits-per-update=4] [--seed=1] [--support=0.1]\n"
      "  [--queue-cap=4096] [--batch-max=256]\n"
      "  [--record=stream.txt | --replay=stream.txt] [--out=BENCH.json]\n"
      "  [--smoke]\n");
  return 2;
}

int Main(int argc, char** argv) {
  const flags::FlagMap flags = flags::Parse(argc, argv);
  flags::WarnUnknown(flags, {"daemon", "socket", "input", "requests",
                             "clients", "update-fraction", "edits-per-update",
                             "seed", "support", "queue-cap",
                             "batch-max", "record", "replay", "out", "smoke"});
  const bool smoke = flags.count("smoke") > 0;

  int requests = 0, clients = 0, edits_per_update = 0, seed = 0;
  int queue_cap = 0, batch_max = 0;
  double update_fraction = 0;
  if (!IntFlag(flags, "requests", smoke ? 300 : 10000, &requests) ||
      !IntFlag(flags, "clients", smoke ? 2 : 4, &clients) ||
      !IntFlag(flags, "edits-per-update", 4, &edits_per_update) ||
      !IntFlag(flags, "seed", 1, &seed) ||
      !IntFlag(flags, "queue-cap", 4096, &queue_cap) ||
      !IntFlag(flags, "batch-max", 256, &batch_max) ||
      !DoubleFlag(flags, "update-fraction", 0.1, &update_fraction)) {
    return Usage();
  }
  if (requests <= 0 || clients <= 0 || clients > 64) return Usage();
  const std::string support = Get(flags, "support", smoke ? "0.2" : "0.1");
  const std::string daemon_binary = Get(flags, "daemon", "");
  std::string socket_path = Get(flags, "socket", "");
  const bool spawn = socket_path.empty();
  if (spawn && daemon_binary.empty()) return Usage();

  // The generator needs the same database the daemon serves: either load
  // the given file or synthesize one (and persist it for the daemon).
  const std::string scratch =
      "/tmp/loadgen." + std::to_string(::getpid());
  std::string input = Get(flags, "input", "");
  GraphDatabase db;
  if (input.empty()) {
    if (!spawn) {
      std::fprintf(stderr,
                   "error: --socket mode needs --input (the database the "
                   "daemon loaded)\n");
      return Usage();
    }
    GeneratorParams params;
    params.num_graphs = smoke ? 60 : 200;
    params.avg_edges = 12;
    params.num_kernels = 20;
    params.seed = static_cast<uint64_t>(seed);
    db = GenerateDatabase(params);
    input = scratch + ".db.lg";
    const Status written = WriteGraphDatabaseFile(db, input);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
  } else {
    const Status read = ReadGraphDatabaseFile(input, &db);
    if (!read.ok()) {
      std::fprintf(stderr, "error: %s\n", read.ToString().c_str());
      return 1;
    }
  }

  pid_t daemon_pid = -1;
  if (spawn) {
    socket_path = scratch + ".sock";
    std::vector<std::string> args = {
        "--input=" + input,
        "--socket=" + socket_path,
        "--support=" + support,
        "--queue-cap=" + std::to_string(queue_cap),
        "--batch-max=" + std::to_string(batch_max),
    };
    daemon_pid = SpawnDaemon(daemon_binary, args);
    if (daemon_pid < 0 || !WaitForSocket(socket_path, daemon_pid, 60.0)) {
      if (daemon_pid > 0) ::kill(daemon_pid, SIGKILL);
      return 1;
    }
  }

  // Control connection: discover the resident support (query supports are
  // generated relative to it) and sanity-check the daemon sees the same
  // database.
  LineClient control;
  std::string response;
  Json parsed;
  const auto fail = [&](const std::string& why) {
    std::fprintf(stderr, "error: %s (last response: %.200s)\n", why.c_str(),
                 response.c_str());
    if (daemon_pid > 0) ::kill(daemon_pid, SIGKILL);
    return 1;
  };
  if (!control.Connect(socket_path)) return fail("cannot connect control");
  if (!control.RoundTrip("{\"id\":\"ctl-ping\",\"cmd\":\"ping\"}",
                         &response) ||
      !Json::Parse(response, &parsed).ok()) {
    return fail("ping failed");
  }
  const Json* result = parsed.Get("result");
  const Json* graphs = result ? result->Get("graphs") : nullptr;
  const Json* resident = result ? result->Get("support") : nullptr;
  if (graphs == nullptr || resident == nullptr || !graphs->is_int() ||
      !resident->is_int()) {
    return fail("malformed ping result");
  }
  if (graphs->AsInt() != db.size()) {
    return fail("daemon database has " + std::to_string(graphs->AsInt()) +
                " graphs, local copy has " + std::to_string(db.size()));
  }

  // Generate or replay the workload.
  std::vector<StreamItem> items;
  const std::string replay = Get(flags, "replay", "");
  if (!replay.empty()) {
    const Status read = ReadEditStreamFile(replay, &items);
    if (!read.ok()) return fail(read.ToString());
  } else {
    EditStreamOptions stream;
    stream.seed = static_cast<uint64_t>(seed);
    stream.requests = requests;
    stream.update_fraction = update_fraction;
    stream.edits_per_update = edits_per_update;
    stream.resident_support = static_cast<int>(resident->AsInt());
    items = GenerateEditStream(db, stream);
  }
  const std::string record = Get(flags, "record", "");
  if (!record.empty()) {
    const Status written = WriteEditStreamFile(items, record);
    if (!written.ok()) return fail(written.ToString());
  }
  int planned_updates = 0;
  for (const StreamItem& item : items) planned_updates += item.is_update;
  std::fprintf(stderr,
               "loadgen: %zu requests (%d updates), %d clients, resident "
               "support %lld over %d graphs\n",
               items.size(), planned_updates, clients,
               static_cast<long long>(resident->AsInt()), db.size());

  // Drive.
  std::vector<WorkerStats> stats(clients);
  std::vector<std::thread> workers;
  Stopwatch wall;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back(RunWorker, socket_path, std::cref(items),
                         static_cast<size_t>(c), static_cast<size_t>(clients),
                         &stats[c]);
  }
  for (std::thread& t : workers) t.join();
  const double drive_seconds = wall.ElapsedSeconds();

  // Drain, then audit global consistency.
  Stopwatch sync_watch;
  if (!control.RoundTrip("{\"id\":\"ctl-sync\",\"cmd\":\"sync\"}",
                         &response)) {
    return fail("sync failed");
  }
  const double sync_seconds = sync_watch.ElapsedSeconds();

  int incorrect = 0, overloaded = 0;
  std::vector<double> query_ms, update_ms;
  std::map<uint64_t, uint64_t> epoch_digests;
  for (const WorkerStats& w : stats) {
    incorrect += w.incorrect;
    overloaded += w.overloaded;
    query_ms.insert(query_ms.end(), w.query_ms.begin(), w.query_ms.end());
    update_ms.insert(update_ms.end(), w.update_ms.begin(), w.update_ms.end());
    for (const std::string& complaint : w.complaints) {
      std::fprintf(stderr, "incorrect: %s\n", complaint.c_str());
    }
    for (const auto& [epoch, digest] : w.observations) {
      const auto [it, inserted] = epoch_digests.emplace(epoch, digest);
      if (!inserted && it->second != digest) {
        ++incorrect;
        std::fprintf(stderr,
                     "incorrect: epoch %llu observed with two digests "
                     "(%llu vs %llu)\n",
                     static_cast<unsigned long long>(epoch),
                     static_cast<unsigned long long>(it->second),
                     static_cast<unsigned long long>(digest));
      }
    }
  }

  // Final metrics: the stream is valid under any interleaving, so a
  // rejected edit means the daemon (or the generator) corrupted state.
  if (!control.RoundTrip("{\"id\":\"ctl-metrics\",\"cmd\":\"metrics\"}",
                         &response) ||
      !Json::Parse(response, &parsed).ok()) {
    return fail("metrics failed");
  }
  const Json* registry = parsed.Get("result");
  registry = registry ? registry->Get("registry") : nullptr;
  const Json* counters = registry ? registry->Get("counters") : nullptr;
  const auto counter = [&](const char* name) -> int64_t {
    const Json* c = counters ? counters->Get(name) : nullptr;
    return c != nullptr && c->is_int() ? c->AsInt() : 0;
  };
  const int64_t edits_rejected = counter("service.edits_rejected");
  const int64_t edits_applied = counter("service.edits_applied");
  const int64_t batches_applied = counter("service.batches_applied");
  if (edits_rejected != 0) {
    ++incorrect;
    std::fprintf(stderr,
                 "incorrect: daemon rejected %lld edits from a stream that "
                 "is valid under any interleaving\n",
                 static_cast<long long>(edits_rejected));
  }
  const Json* gauges = registry ? registry->Get("gauges") : nullptr;
  const Json* depth = gauges ? gauges->Get("service.queue_depth") : nullptr;
  if (depth != nullptr && depth->is_int() && depth->AsInt() != 0) {
    ++incorrect;
    std::fprintf(stderr, "incorrect: queue depth %lld after sync\n",
                 static_cast<long long>(depth->AsInt()));
  }

  // Daemon-side lifecycle breakdown (DESIGN.md section 13): bucket-estimated
  // quantiles of each pipeline segment, read from the same metrics dump.
  const Json* histograms = registry ? registry->Get("histograms") : nullptr;
  const auto quantile = [&](const char* name, const char* q) -> double {
    const Json* h = histograms ? histograms->Get(name) : nullptr;
    const Json* v = h ? h->Get(q) : nullptr;
    return v != nullptr && v->is_number() ? v->AsDouble() : 0;
  };
  struct Segment {
    const char* label;
    const char* metric;
    double p50 = 0, p99 = 0;
  };
  Segment segments[] = {
      {"sock_read", "service.sock_read_ms"},
      {"queue_wait", "service.queue_wait_ms"},
      {"coalesce", "service.coalesce_ms"},
      {"phase_a_remine", "service.phase_a_ms"},
      {"phase_b_apply", "service.phase_b_ms"},
      {"update_pipeline", "service.update_pipeline_ms"},
      {"reply_write", "service.reply_write_ms"},
  };
  for (Segment& segment : segments) {
    segment.p50 = quantile(segment.metric, "p50");
    segment.p99 = quantile(segment.metric, "p99");
  }
  // Accounting check: queue wait + coalesce + phase A + phase B + reply
  // write should explain (almost) all of the daemon-side update pipeline —
  // sock_read is excluded because under a closed loop it measures client
  // think time, not service time.
  const double explained_p99 = segments[1].p99 + segments[2].p99 +
                               segments[3].p99 + segments[4].p99 +
                               segments[6].p99;
  const double pipeline_p99 = segments[5].p99 + segments[6].p99;
  const double breakdown_coverage =
      pipeline_p99 > 0 ? explained_p99 / pipeline_p99 : 0;

  if (spawn) {
    control.RoundTrip("{\"id\":\"ctl-bye\",\"cmd\":\"shutdown\"}", &response);
    control.Close();
    int wait_status = 0;
    ::waitpid(daemon_pid, &wait_status, 0);
    if (!WIFEXITED(wait_status) || WEXITSTATUS(wait_status) != 0) {
      ++incorrect;
      std::fprintf(stderr, "incorrect: daemon exit status %d\n", wait_status);
    }
    ::unlink((scratch + ".db.lg").c_str());
  } else {
    control.Close();
  }

  const Percentiles query_latency = ComputePercentiles(&query_ms);
  const Percentiles update_latency = ComputePercentiles(&update_ms);
  const size_t completed = query_ms.size() + update_ms.size();
  const double throughput =
      drive_seconds > 0 ? static_cast<double>(completed) / drive_seconds : 0;

  std::printf(
      "loadgen: %zu/%zu requests in %.2fs (%.0f req/s), %d overloaded, "
      "%d incorrect\n"
      "  query  p50 %.3f ms  p99 %.3f ms  max %.3f ms  (%zu samples)\n"
      "  update p50 %.3f ms  p99 %.3f ms  max %.3f ms  (%zu samples)\n"
      "  sync drain %.2fs, %lld edits applied in %lld batches\n",
      completed, items.size(), drive_seconds, throughput, overloaded,
      incorrect, query_latency.p50, query_latency.p99, query_latency.max,
      query_ms.size(), update_latency.p50, update_latency.p99,
      update_latency.max, update_ms.size(), sync_seconds,
      static_cast<long long>(edits_applied),
      static_cast<long long>(batches_applied));
  std::printf("  daemon breakdown (bucket-estimated ms):\n");
  for (const Segment& segment : segments) {
    std::printf("    %-15s p50 %8.3f  p99 %8.3f\n", segment.label,
                segment.p50, segment.p99);
  }
  std::printf(
      "  breakdown coverage: %.1f%% of update-pipeline p99 explained by "
      "queue-wait + coalesce + phase A + phase B + reply-write\n",
      breakdown_coverage * 100.0);

  const std::string out = Get(flags, "out", "");
  if (!out.empty()) {
    Json bench = Json::Object();
    bench.Set("id", Json::Str("service-loadgen"));
    bench.Set("requests", Json::Number(static_cast<int64_t>(items.size())));
    bench.Set("clients", Json::Number(static_cast<int64_t>(clients)));
    bench.Set("update_fraction", Json::Number(update_fraction));
    bench.Set("seed", Json::Number(static_cast<int64_t>(seed)));
    bench.Set("cores", Json::Number(static_cast<int64_t>(
                           std::thread::hardware_concurrency())));
    bench.Set("threads", Json::Number(static_cast<int64_t>(clients)));
    bench.Set("incorrect", Json::Number(static_cast<int64_t>(incorrect)));
    bench.Set("overloaded", Json::Number(static_cast<int64_t>(overloaded)));
    bench.Set("throughput_rps", Json::Number(throughput));
    Json latency = Json::Object();
    latency.Set("query_p50_ms", Json::Number(query_latency.p50));
    latency.Set("query_p99_ms", Json::Number(query_latency.p99));
    latency.Set("update_p50_ms", Json::Number(update_latency.p50));
    latency.Set("update_p99_ms", Json::Number(update_latency.p99));
    latency.Set("drive_total_ms", Json::Number(drive_seconds * 1e3));
    latency.Set("sync_drain_ms", Json::Number(sync_seconds * 1e3));
    bench.Set("latency_ms", std::move(latency));
    // Named `*_ms` so bench_compare.py picks the block up automatically.
    Json breakdown = Json::Object();
    for (const Segment& segment : segments) {
      breakdown.Set(std::string(segment.label) + "_p50",
                    Json::Number(segment.p50));
      breakdown.Set(std::string(segment.label) + "_p99",
                    Json::Number(segment.p99));
    }
    bench.Set("daemon_breakdown_ms", std::move(breakdown));
    bench.Set("breakdown_coverage", Json::Number(breakdown_coverage));
    std::ofstream file(out);
    file << bench.Dump() << "\n";
    if (!file) {
      std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
      return 1;
    }
  }
  return incorrect == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
