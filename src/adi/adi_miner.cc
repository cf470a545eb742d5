#include "adi/adi_miner.h"

#include <unistd.h>

#include <sstream>

#include "common/logging.h"
#include "common/timing.h"
#include "miner/gspan.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace partminer {

namespace {

std::string UniqueTempPath() {
  static int counter = 0;
  std::ostringstream out;
  out << "/tmp/partminer_adi_" << ::getpid() << "_" << counter++ << ".pages";
  return out.str();
}

}  // namespace

AdiMine::AdiMine(const AdiMineOptions& options)
    : pool_(&disk_, options.pool.frames), index_(&pool_) {
  const std::string path =
      options.file_path.empty() ? UniqueTempPath() : options.file_path;
  PM_CHECK(disk_.Open(path).ok()) << "cannot open ADI page file " << path;
  disk_.set_simulated_latency_us(options.io_delay_us);
}

Status AdiMine::BuildIndex(const GraphDatabase& db) {
  PM_TRACE_SPAN("adi.build_index", {{"graphs", db.size()}});
  Stopwatch watch;
  // A failed build leaves a partially written index; refuse to mine it
  // until a later rebuild succeeds.
  built_ = false;
  pool_.Clear();
  PARTMINER_RETURN_IF_ERROR_CTX(disk_.Reset(), "resetting page file");
  PARTMINER_RETURN_IF_ERROR_CTX(index_.Build(db), "building ADI index");
  built_ = true;
  PM_METRIC_HISTOGRAM("adi.phase.build_index_ms")
      ->Observe(watch.ElapsedSeconds() * 1e3);
  return Status::Ok();
}

Status AdiMine::Mine(const MinerOptions& options, PatternSet* out) {
  *out = PatternSet();
  if (!built_) {
    return Status::InvalidArgument(
        "Mine() before a successful BuildIndex()");
  }
  PM_TRACE_SPAN("adi.mine", {{"support", options.min_support}});

  // Scan phase: the edge table tells which graphs contain any frequent
  // edge; only those are decoded from their pages.
  Stopwatch scan_watch;
  const std::vector<int> relevant =
      index_.GraphsWithFrequentEdges(options.min_support);
  // Keep database indices aligned with the original ids so pattern TID
  // lists are comparable with the other miners: graphs without frequent
  // edges become empty placeholders.
  GraphDatabase decoded;
  size_t next_relevant = 0;
  for (int i = 0; i < index_.graph_count(); ++i) {
    if (next_relevant < relevant.size() && relevant[next_relevant] == i) {
      Graph g;
      PARTMINER_RETURN_IF_ERROR_CTX(index_.LoadGraph(i, &g),
                                    "ADI index scan");
      decoded.Add(std::move(g), i);
      ++next_relevant;
    } else {
      decoded.Add(Graph(), i);
    }
  }
  last_scan_seconds_ = scan_watch.ElapsedSeconds();

  GSpanMiner miner;
  *out = miner.Mine(decoded, options);
  return Status::Ok();
}

PatternSet AdiMine::Mine(const MinerOptions& options) {
  PatternSet out;
  const Status status = Mine(options, &out);
  PM_CHECK(status.ok()) << status.ToString();
  return out;
}

}  // namespace partminer
