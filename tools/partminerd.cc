// partminerd — long-lived partition-mining service daemon.
//
//   partminerd --input=db.lg [--support=0.05]
//              (--socket=/path/daemon.sock | --stdio)
//              [--queue-cap=4096] [--batch-max=256]
//              [--snapshot-prefix=/path/snap]
//              [--metrics=metrics.json] [--trace=trace.json]
//              [--slow-ms=MS] [--flight-dump=flight.json]
//              [--fault-read=SPEC] [--fault-write=SPEC] [--fault-alloc=SPEC]
//              [--fault-seed=S]
//   partminerd --restore=/path/snap (--socket=... | --stdio) [...]
//
// Loads the database, mines it once (one frontier-capturing root sweep,
// no partition), then keeps the IncPartMiner state resident and serves the
// newline-delimited JSON protocol of DESIGN.md section 12: `update`
// (batched edits, bounded queue with overload rejection), `query`
// (frequent-pattern retrieval / containment), `snapshot` (writes
// `<path>.db.lg`: the database with its root support and a checksum in a
// trailing comment line), `metrics`, `health`, `dump` (flight recorder),
// `sync`, `ping`, `shutdown`.
// --restore=PREFIX checks `PREFIX.db.lg`, then mines it at the saved
// support; --support is ignored.
//
// Observability (DESIGN.md section 13):
//  - --trace=PATH records Chrome trace-event spans (request lifecycle +
//    batcher rounds) and writes them on clean shutdown.
//  - --slow-ms=MS logs requests slower than MS and leaves flight events.
//  - --flight-dump=PATH dumps the flight recorder there on SIGSEGV/SIGABRT
//    and on clean shutdown (stderr when no path is given at crash time).
//
// Fault SPECs (testing): once:N (fail the (N+1)-th op), n:START:COUNT, or
// p:PROB — scripted/probabilistic storage faults on the resident snapshot
// and admission paths; see DESIGN.md section 12.5.

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "common/flags.h"
#include "common/parse.h"
#include "core/part_miner.h"
#include "graph/graph_io.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/daemon.h"
#include "service/session.h"
#include "storage/fault_injector.h"

namespace {

using namespace partminer;

/// Fixed at startup so the crash handler never touches std::string. Empty
/// means "dump to stderr".
char g_flight_dump_path[512] = {0};

/// Async-signal-safe post-mortem: on SIGSEGV/SIGABRT dump the flight
/// recorder (write(2)-only path, no allocation), then re-raise with the
/// default disposition so the process still dies with the original signal.
void CrashDumpHandler(int sig) {
  int fd = STDERR_FILENO;
  if (g_flight_dump_path[0] != '\0') {
    const int out =
        ::open(g_flight_dump_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out >= 0) fd = out;
  }
  obs::FlightRecorder::Global().DumpToFd(fd);
  if (fd != STDERR_FILENO) ::close(fd);
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void InstallCrashDumpHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = CrashDumpHandler;
  ::sigaction(SIGSEGV, &sa, nullptr);
  ::sigaction(SIGABRT, &sa, nullptr);
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: partminerd (--input=db.lg | --restore=prefix) "
      "(--socket=path | --stdio) [--support=0.05] "
      "[--queue-cap=4096] [--batch-max=256] [--snapshot-prefix=path] "
      "[--metrics=out.json] [--trace=out.json] "
      "[--slow-ms=MS] [--flight-dump=out.json] "
      "[--fault-read|--fault-write|--fault-alloc=once:N|n:S:C|p:P] "
      "[--fault-seed=S]\n");
  return 2;
}

bool ArmFault(FaultInjector* injector, FaultInjector::Op op,
              const std::string& spec_name, const std::string& spec) {
  if (spec.empty()) return true;
  const auto fail = [&]() {
    std::fprintf(stderr,
                 "error: --%s=%s (want once:N, n:START:COUNT, or p:PROB)\n",
                 spec_name.c_str(), spec.c_str());
    return false;
  };
  if (spec.rfind("once:", 0) == 0) {
    int after = 0;
    if (!ParseInt32(spec.substr(5), &after) || after < 0) return fail();
    injector->FailOnce(op, after);
    return true;
  }
  if (spec.rfind("n:", 0) == 0) {
    const size_t second = spec.find(':', 2);
    if (second == std::string::npos) return fail();
    int start = 0, count = 0;
    if (!ParseInt32(spec.substr(2, second - 2), &start) ||
        !ParseInt32(spec.substr(second + 1), &count) || start < 0 ||
        count <= 0) {
      return fail();
    }
    injector->FailN(op, start, count);
    return true;
  }
  if (spec.rfind("p:", 0) == 0) {
    double p = 0;
    if (!ParseDouble(spec.substr(2), &p) || p < 0 || p > 1) return fail();
    injector->SetProbability(op, p);
    return true;
  }
  return fail();
}

int Main(int argc, char** argv) {
  const flags::FlagMap flag_map = flags::Parse(argc, argv);
  flags::WarnUnknown(flag_map,
                     {"input", "restore", "socket", "stdio", "support",
                      "queue-cap", "batch-max", "snapshot-prefix", "metrics",
                      "trace", "slow-ms", "flight-dump", "fault-read",
                      "fault-write", "fault-alloc", "fault-seed"});

  const std::string input = flags::Get(flag_map, "input", "");
  const std::string restore = flags::Get(flag_map, "restore", "");
  const std::string socket_path = flags::Get(flag_map, "socket", "");
  const bool stdio = flag_map.count("stdio") > 0;
  if ((input.empty() == restore.empty()) ||
      (socket_path.empty() && !stdio)) {
    return Usage();
  }

  int queue_cap = 4096, batch_max = 256;
  int fault_seed = 1;
  double support = 0.05, slow_ms = 0;
  if (!flags::IntFlag(flag_map, "queue-cap", 4096, &queue_cap) ||
      !flags::IntFlag(flag_map, "batch-max", 256, &batch_max) ||
      !flags::IntFlag(flag_map, "fault-seed", 1, &fault_seed) ||
      !flags::DoubleFlag(flag_map, "support", 0.05, &support) ||
      !flags::DoubleFlag(flag_map, "slow-ms", 0, &slow_ms)) {
    return Usage();
  }
  if (support <= 0) {
    std::fprintf(stderr, "error: --support must be a positive number\n");
    return Usage();
  }

  const std::string flight_dump = flags::Get(flag_map, "flight-dump", "");
  if (flight_dump.size() + 1 > sizeof(g_flight_dump_path)) {
    std::fprintf(stderr, "error: --flight-dump path too long\n");
    return Usage();
  }
  std::memcpy(g_flight_dump_path, flight_dump.c_str(),
              flight_dump.size() + 1);
  InstallCrashDumpHandlers();

  const std::string trace_path = flags::Get(flag_map, "trace", "");
  if (!trace_path.empty()) obs::Tracer::Global().Start();

  service::SessionOptions session_options;
  if (support >= 1.0) {
    session_options.miner.min_support_count = static_cast<int>(support);
  } else {
    session_options.miner.min_support_fraction = support;
    session_options.miner.min_support_count = -1;
  }

  service::MinerSession session(session_options);
  FaultInjector injector(static_cast<uint64_t>(fault_seed));
  const bool faults =
      flag_map.count("fault-read") + flag_map.count("fault-write") +
          flag_map.count("fault-alloc") >
      0;
  if (faults) {
    if (!ArmFault(&injector, FaultInjector::Op::kRead, "fault-read",
                  flags::Get(flag_map, "fault-read", "")) ||
        !ArmFault(&injector, FaultInjector::Op::kWrite, "fault-write",
                  flags::Get(flag_map, "fault-write", "")) ||
        !ArmFault(&injector, FaultInjector::Op::kAlloc, "fault-alloc",
                  flags::Get(flag_map, "fault-alloc", ""))) {
      return Usage();
    }
    session.set_fault_injector(&injector);
  }

  Status status;
  if (!restore.empty()) {
    status = session.InitFromSnapshot(restore + ".db.lg");
  } else {
    GraphDatabase db;
    status = ReadGraphDatabaseFile(input, &db);
    if (status.ok()) status = session.Init(std::move(db));
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "partminerd: resident (%d graphs, support %d, %d patterns)\n",
               session.graph_count(), session.resident_support(),
               session.pattern_count());

  service::DaemonOptions daemon_options;
  daemon_options.queue_cap_edits = queue_cap;
  daemon_options.batch_max_edits = batch_max;
  daemon_options.snapshot_prefix = flags::Get(flag_map, "snapshot-prefix", "");
  daemon_options.slow_ms = slow_ms;
  service::Daemon daemon(&session, daemon_options);

  if (stdio) {
    daemon.ServeStream(std::cin, std::cout);
  } else {
    std::fprintf(stderr, "partminerd: listening on %s\n",
                 socket_path.c_str());
    status = daemon.ServeUnixSocket(socket_path);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  const std::string metrics_path = flags::Get(flag_map, "metrics", "");
  if (!metrics_path.empty() &&
      !obs::MetricRegistry::Global().WriteJsonFile(metrics_path)) {
    return 1;
  }
  if (!trace_path.empty()) {
    obs::Tracer::Global().Stop();
    if (!obs::Tracer::Global().WriteChromeTraceFile(trace_path)) return 1;
  }
  if (!flight_dump.empty()) {
    // Clean-shutdown dump reuses the crash path's writer so the file format
    // is identical either way.
    const int fd = ::open(flight_dump.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
      std::fprintf(stderr, "error: cannot write %s\n", flight_dump.c_str());
      return 1;
    }
    obs::FlightRecorder::Global().DumpToFd(fd);
    ::close(fd);
  }
  std::fprintf(stderr, "partminerd: bye (epoch %llu)\n",
               static_cast<unsigned long long>(session.epoch()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
