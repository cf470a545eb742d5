#include "testing/fault_sweep.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "adi/adi_miner.h"
#include "core/part_miner.h"
#include "common/random.h"
#include "datagen/edit_stream.h"
#include "datagen/generator.h"
#include "miner/gspan.h"
#include "obs/flight_recorder.h"
#include "service/daemon.h"
#include "service/json.h"
#include "service/session.h"
#include "storage/fault_injector.h"

namespace partminer {
namespace testing {

namespace {

GeneratorParams SweepDatabaseParams(uint64_t seed) {
  // Large enough that the index spans dozens of pages through a 4-frame
  // pool, so read/write/alloc fault points land throughout build and scan.
  GeneratorParams gen;
  gen.num_graphs = 160;
  gen.num_labels = 4;
  gen.avg_edges = 20;
  gen.avg_kernel_edges = 3;
  gen.num_kernels = 5;
  gen.seed = seed * 0x9e3779b97f4a7c15ull + 17;
  return gen;
}

/// "" when `actual` is exactly `expected` (codes, supports, TID sets).
std::string DiffExact(const PatternSet& expected, const PatternSet& actual) {
  if (expected.SortedCodeStrings() != actual.SortedCodeStrings()) {
    return "pattern sets differ (" + std::to_string(expected.size()) +
           " vs " + std::to_string(actual.size()) + " patterns)";
  }
  for (const PatternInfo& p : expected.patterns()) {
    const PatternInfo* q = actual.Find(p.code);
    if (q == nullptr) return "missing " + p.code.ToString();
    if (q->support != p.support || !(q->tids == p.tids)) {
      return "support/tids differ for " + p.code.ToString();
    }
  }
  return "";
}

/// A fresh directory under $TMPDIR (default /tmp), removed with everything
/// in it when the object goes, so sweeps that run at the same time never
/// share a file. path() is empty when the directory could not be made.
class ScratchDir {
 public:
  ScratchDir() {
    const char* tmp = std::getenv("TMPDIR");
    std::string name =
        std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
        "/pm_sweep.XXXXXX";
    if (::mkdtemp(name.data()) != nullptr) path_ = name;
  }
  ~ScratchDir() {
    std::error_code ignored;
    if (!path_.empty()) std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// One fault-injected build+mine. Returns via the outcome counters; any
/// contract violation (wrong result under OK status, or failure to recover
/// once the injector is detached) is appended to `violations`.
void RunInjectedAdiRound(const GraphDatabase& db, const PatternSet& expected,
                         const MinerOptions& options, FaultInjector* injector,
                         const std::string& label, FaultSweepOutcome* out) {
  ++out->runs;
  AdiMineOptions adi_options;
  adi_options.pool.frames = 4;  // Tiny pool: every fault point is hot.
  AdiMine miner(adi_options);
  miner.set_fault_injector(injector);

  Status status = miner.BuildIndex(db);
  PatternSet patterns;
  if (status.ok()) status = miner.Mine(options, &patterns);

  if (!status.ok()) {
    ++out->clean_failures;
    if (status.message().empty()) {
      out->violations.push_back(label + ": failure with empty message");
    }
  } else {
    const std::string diff = DiffExact(expected, patterns);
    if (diff.empty()) {
      ++out->successes;
    } else {
      out->violations.push_back(label + ": OK status but wrong result: " +
                                diff);
    }
  }

  // Recovery: with the injector detached, the same miner object must
  // rebuild and produce the exact fault-free result — no poisoned state.
  miner.set_fault_injector(nullptr);
  const Status rebuilt = miner.BuildIndex(db);
  if (!rebuilt.ok()) {
    out->violations.push_back(label + ": recovery rebuild failed: " +
                              rebuilt.ToString());
    return;
  }
  PatternSet recovered;
  const Status remined = miner.Mine(options, &recovered);
  if (!remined.ok()) {
    out->violations.push_back(label + ": recovery mine failed: " +
                              remined.ToString());
    return;
  }
  const std::string diff = DiffExact(expected, recovered);
  if (!diff.empty()) {
    out->violations.push_back(label + ": wrong result after recovery: " +
                              diff);
  }
}

}  // namespace

FaultSweepOutcome RunAdiFaultSweep(uint64_t seed) {
  FaultSweepOutcome out;
  const GraphDatabase db = GenerateDatabase(SweepDatabaseParams(seed));

  MinerOptions options;
  options.min_support = 16;
  options.max_edges = 4;
  GSpanMiner gspan;
  const PatternSet expected = gspan.Mine(db, options);

  const FaultInjector::Op kOps[] = {FaultInjector::Op::kRead,
                                    FaultInjector::Op::kWrite,
                                    FaultInjector::Op::kAlloc};

  // Probabilistic sweep: the paper-scale p grid from the issue.
  for (const double p : {0.001, 0.01, 0.1}) {
    for (const FaultInjector::Op op : kOps) {
      for (int round = 0; round < 4; ++round) {
        FaultInjector injector(seed ^ (static_cast<uint64_t>(round) << 32) ^
                               static_cast<uint64_t>(p * 1e6));
        injector.SetProbability(op, p);
        std::ostringstream label;
        label << "p=" << p << " op=" << FaultInjector::OpName(op)
              << " round=" << round;
        RunInjectedAdiRound(db, expected, options, &injector, label.str(),
                            &out);
      }
    }
  }

  // Scripted sweep: fail exactly the n-th operation of each kind, walking
  // the fault point through the whole build+mine prefix.
  for (const FaultInjector::Op op : kOps) {
    for (int n = 0; n < 40; ++n) {
      FaultInjector injector(seed);
      injector.FailOnce(op, n);
      std::ostringstream label;
      label << "fail-once op=" << FaultInjector::OpName(op) << " n=" << n;
      RunInjectedAdiRound(db, expected, options, &injector, label.str(),
                          &out);
    }
  }
  return out;
}

FaultSweepOutcome RunSnapshotTamperSweep(uint64_t seed) {
  FaultSweepOutcome out;
  const ScratchDir dir;
  if (dir.path().empty()) {
    out.violations.push_back("cannot create a scratch directory");
    return out;
  }
  service::SessionOptions options;
  options.miner.min_support_count = 4;
  service::MinerSession saved(options);
  service::SnapshotResult snapshot;
  Status status =
      saved.Init(GenerateDatabase(SweepDatabaseParams(seed + 1)));
  if (status.ok()) status = saved.Snapshot(dir.path() + "/saved", &snapshot);
  if (!status.ok()) {
    out.violations.push_back("snapshot failed: " + status.ToString());
    return out;
  }
  std::string bytes;
  {
    std::ifstream in(snapshot.db_path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  const std::string tampered = dir.path() + "/tampered.db.lg";

  auto try_restore = [&](const std::string& image, const std::string& label) {
    ++out.runs;
    std::ofstream(tampered) << image;
    service::MinerSession restored(options);
    const Status restore = restored.InitFromSnapshot(tampered);
    if (!restore.ok()) {
      ++out.clean_failures;
      if (restored.ready()) {
        out.violations.push_back(label + ": failed restore left the "
                                         "session ready");
      }
      if (restore.message().empty()) {
        out.violations.push_back(label + ": failure with empty message");
      }
      return;
    }
    // A restore that succeeds despite tampering must have restored exactly
    // the saved state (only possible for no-op corruptions).
    const std::string diff =
        DiffExact(saved.VerifiedPatterns(), restored.VerifiedPatterns());
    if (diff.empty() && restored.digest() == saved.digest()) {
      ++out.successes;
    } else {
      out.violations.push_back(label + ": OK restore with wrong state: " +
                               (diff.empty() ? "digest differs" : diff));
    }
  };

  Rng rng(seed + 5);
  for (int i = 0; i < 48; ++i) {
    const size_t cut = 1 + rng.Uniform(bytes.size() - 1);
    try_restore(bytes.substr(0, cut),
                "truncate to " + std::to_string(cut) + " bytes");
  }
  // Cuts just past a newline leave a valid, smaller database; only the
  // footer can refuse them. The last one drops exactly the footer line.
  std::vector<size_t> line_ends;
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    if (bytes[i] == '\n') line_ends.push_back(i + 1);
  }
  for (int i = 0; i < 16; ++i) {
    const size_t cut = line_ends[rng.Uniform(line_ends.size())];
    try_restore(bytes.substr(0, cut),
                "truncate at the line boundary " + std::to_string(cut));
  }
  try_restore(bytes.substr(0, line_ends.back()), "footer line dropped");
  for (int i = 0; i < 48; ++i) {
    std::string flipped = bytes;
    const size_t pos = rng.Uniform(flipped.size());
    flipped[pos] = static_cast<char>(flipped[pos] ^ (1u << rng.Uniform(8)));
    try_restore(flipped, "bit flip at byte " + std::to_string(pos));
  }
  // Control: the untampered file must restore the saved digest.
  const int before = out.successes;
  try_restore(bytes, "untampered");
  if (out.successes == before) {
    out.violations.push_back("untampered snapshot failed to restore");
  }
  return out;
}

namespace {

using service::Json;

/// Drives one fault-armed daemon round through the scripted request
/// sequence. Bookkeeping mirror: a local copy of the database accumulates
/// exactly the acknowledged update batches, so the round can end by
/// re-mining the mirror from scratch and demanding digest equality —
/// proving no fault ever half-applied a batch.
struct DaemonRound {
  FaultSweepOutcome* out;
  std::string label;
  service::MinerSession* session;
  service::Daemon* daemon;
  GraphDatabase mirror;
  bool injected_failures = false;
  bool broken = false;

  /// Sends one line; verifies the response is well-formed JSON that is a
  /// success or a structured error. Returns the parsed response.
  Json Send(const std::string& line, bool* ok_out) {
    bool shutdown = false;
    const std::string response = daemon->HandleLine(line, &shutdown);
    Json parsed;
    *ok_out = false;
    if (!Json::Parse(response, &parsed).ok() ||
        parsed.type() != Json::Type::kObject) {
      out->violations.push_back(label + ": unparseable response: " +
                                response.substr(0, 160));
      broken = true;
      return parsed;
    }
    const Json* ok = parsed.Get("ok");
    if (ok == nullptr || ok->type() != Json::Type::kBool) {
      out->violations.push_back(label + ": response without 'ok': " +
                                response.substr(0, 160));
      broken = true;
      return parsed;
    }
    if (!ok->AsBool()) {
      const Json* error = parsed.Get("error");
      const Json* code = error ? error->Get("code") : nullptr;
      const Json* message = error ? error->Get("message") : nullptr;
      if (code == nullptr || !code->is_string() ||
          code->AsString().empty() || message == nullptr ||
          !message->is_string()) {
        out->violations.push_back(label + ": error without code/message: " +
                                  response.substr(0, 160));
        broken = true;
      }
      return parsed;
    }
    *ok_out = true;
    return parsed;
  }

  void Update(const std::vector<EditOp>& edits) {
    std::string line = "{\"cmd\":\"update\",\"wait\":true,\"edits\":[";
    for (size_t i = 0; i < edits.size(); ++i) {
      if (i > 0) line.push_back(',');
      line += service::EditToJson(edits[i]).Dump();
    }
    line += "]}";
    bool ok = false;
    Send(line, &ok);
    if (ok) {
      UpdateLog log;
      ApplyEditBatch(&mirror, edits, &log);
    } else {
      injected_failures = true;
    }
  }

  void Snapshot(const std::string& prefix) {
    bool ok = false;
    Send("{\"cmd\":\"snapshot\",\"path\":\"" + prefix + "\"}", &ok);
    if (!ok) injected_failures = true;
  }

  /// The daemon must answer a ping after every fault — still serving.
  void Ping() {
    bool ok = false;
    Send("{\"cmd\":\"ping\"}", &ok);
    if (!ok) {
      out->violations.push_back(label + ": ping failed after fault");
      broken = true;
    }
  }
};

}  // namespace

FaultSweepOutcome RunDaemonFaultSweep(uint64_t seed) {
  FaultSweepOutcome out;

  GeneratorParams gen;
  gen.num_graphs = 40;
  gen.num_labels = 6;
  gen.avg_edges = 10;
  gen.avg_kernel_edges = 3;
  gen.num_kernels = 6;
  gen.seed = seed * 0x9e3779b97f4a7c15ull + 23;
  const GraphDatabase base = GenerateDatabase(gen);

  service::SessionOptions session_options;
  session_options.miner.min_support_count = 6;

  EditStreamOptions stream;
  stream.seed = seed + 3;
  stream.requests = 5;
  stream.update_fraction = 1.0;  // Updates only; queries close each round.
  stream.edits_per_update = 3;
  stream.resident_support = 6;
  const std::vector<StreamItem> updates = GenerateEditStream(base, stream);

  const ScratchDir dir;
  if (dir.path().empty()) {
    out.violations.push_back("cannot create a scratch directory");
    return out;
  }
  const std::string prefix = dir.path() + "/snap";
  const std::string snapshot_path = prefix + ".db.lg";

  const auto oracle_digest = [&](const GraphDatabase& db) {
    PartMiner oracle(session_options.miner);
    oracle.Mine(db);
    return service::PatternSetDigest(oracle.patterns());
  };

  const auto run_round = [&](FaultInjector* injector,
                             const std::string& label) {
    ++out.runs;
    // Sequence fence: every fault injected from here on must leave a
    // flight-recorder event with seq at or past this mark.
    const uint64_t flight_start =
        obs::FlightRecorder::Global().total_recorded();
    service::MinerSession session(session_options);
    const Status init = session.Init(base);
    if (!init.ok()) {
      out.violations.push_back(label + ": init failed: " + init.ToString());
      return;
    }
    session.set_fault_injector(injector);
    service::DaemonOptions daemon_options;
    service::Daemon daemon(&session, daemon_options);

    DaemonRound round{&out, label, &session, &daemon, base};
    for (const StreamItem& item : updates) {
      round.Update(item.edits);
      round.Ping();
      if (round.broken) return;
    }
    round.Snapshot(prefix);
    round.Ping();
    if (round.broken) return;

    // Recovery: detach the injector; the resident state must now snapshot
    // cleanly and its digest must equal a from-scratch mine of exactly the
    // acknowledged batches.
    session.set_fault_injector(nullptr);
    round.Snapshot(prefix);
    bool ok = false;
    const Json reply = round.Send("{\"cmd\":\"query\",\"limit\":0}", &ok);
    if (!ok) {
      out.violations.push_back(label + ": query failed after detach");
      return;
    }
    const Json* result = reply.Get("result");
    const Json* digest = result ? result->Get("digest") : nullptr;
    if (digest == nullptr || !digest->is_string()) {
      out.violations.push_back(label + ": query reply without digest");
      return;
    }
    if (digest->AsString() != std::to_string(oracle_digest(round.mirror))) {
      out.violations.push_back(
          label + ": resident digest diverged from a from-scratch mine of "
                  "the acknowledged batches");
      return;
    }
    // And the snapshot written after detach must restore to the same
    // digest in a brand-new session.
    service::MinerSession restored(session_options);
    const Status restore = restored.InitFromSnapshot(snapshot_path);
    if (!restore.ok()) {
      out.violations.push_back(label + ": post-detach restore failed: " +
                               restore.ToString());
      return;
    }
    if (std::to_string(restored.digest()) != digest->AsString()) {
      out.violations.push_back(label + ": restored digest diverged");
      return;
    }
    if (round.injected_failures) {
      // The post-mortem contract: a fault that surfaced to a client must
      // also be visible in the flight recorder.
      bool saw_fault_event = false;
      for (const obs::FlightEvent& event :
           obs::FlightRecorder::Global().Snapshot()) {
        if (event.type == obs::FlightEventType::kFaultInjected &&
            event.seq >= flight_start) {
          saw_fault_event = true;
          break;
        }
      }
      if (!saw_fault_event) {
        out.violations.push_back(
            label + ": injected fault left no flight-recorder event");
        return;
      }
      ++out.clean_failures;
    } else {
      ++out.successes;
    }
  };

  const FaultInjector::Op kResidentOps[] = {FaultInjector::Op::kAlloc,
                                            FaultInjector::Op::kWrite};
  for (const FaultInjector::Op op : kResidentOps) {
    for (int n = 0; n < 4; ++n) {
      FaultInjector injector(seed);
      injector.FailOnce(op, n);
      std::ostringstream label;
      label << "daemon fail-once op=" << FaultInjector::OpName(op)
            << " n=" << n;
      run_round(&injector, label.str());
    }
    for (const double p : {0.05, 0.3}) {
      FaultInjector injector(seed ^ static_cast<uint64_t>(p * 1e6));
      injector.SetProbability(op, p);
      std::ostringstream label;
      label << "daemon p=" << p << " op=" << FaultInjector::OpName(op);
      run_round(&injector, label.str());
    }
  }

  // Restore grid: scripted read faults against InitFromSnapshot. A clean
  // snapshot exists from the rounds above; every injected restore must
  // fail cleanly, and a fault-free retry must come up with the saved state.
  for (int n = 0; n < 3; ++n) {
    ++out.runs;
    FaultInjector injector(seed + n);
    injector.FailOnce(FaultInjector::Op::kRead, n);
    service::MinerSession session(session_options);
    session.set_fault_injector(&injector);
    const Status restore = session.InitFromSnapshot(snapshot_path);
    const std::string label =
        "daemon restore fail-once n=" + std::to_string(n);
    if (restore.ok()) {
      // kRead faults beyond the consult count simply never fire.
      ++out.successes;
    } else {
      ++out.clean_failures;
      if (session.ready()) {
        out.violations.push_back(label + ": failed restore left session "
                                         "ready");
        continue;
      }
    }
    session.set_fault_injector(nullptr);
    const Status retry = session.InitFromSnapshot(snapshot_path);
    if (!retry.ok()) {
      out.violations.push_back(label + ": fault-free retry failed: " +
                               retry.ToString());
    }
  }

  return out;
}

}  // namespace testing
}  // namespace partminer
