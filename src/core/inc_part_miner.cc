#include "core/inc_part_miner.h"

#include <utility>

#include "common/logging.h"
#include "common/timing.h"
#include "core/merge_join.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace partminer {

double IncPartMinerResult::AggregateSeconds() const {
  return merge_seconds + verify_seconds;
}

IncPartMinerResult IncPartMiner::Update(PartMiner* state,
                                        const GraphDatabase& new_db,
                                        const UpdateLog& log) {
  PM_CHECK(state->mined()) << "IncPartMiner requires a completed Mine()";
  PM_TRACE_SPAN("inc_part_miner.update",
                {{"graphs", new_db.size()},
                 {"updated_graphs", log.updated_graphs.size()}});
  PM_METRIC_COUNTER("partminer.update_runs")->Increment();
  IncPartMinerResult result;

  // Incremental merge at the root (IncMergeJoin, Figure 12 lines 11-12),
  // over the root's own cache and frontier. The root's recombined database
  // is the database itself, so no materialization is needed.
  const PatternSet& old_patterns = state->patterns();
  PatternSet next;
  MergeTransitions transitions;
  Stopwatch merge_watch;
  {
    PM_TRACE_SPAN("inc_merge_root", {{"candidates", old_patterns.size()}});
    MergeJoinOptions mj;
    mj.min_support = state->root_support();
    mj.max_edges = state->options().max_edges;
    mj.delta_sweep_max_fraction =
        state->options().inc_delta_sweep_max_fraction;
    next = IncMergeJoin(new_db, old_patterns, log.updated_graphs, mj,
                        &result.merge_stats, &state->mutable_root_frontier(),
                        &transitions);
  }
  result.merge_seconds = merge_watch.ElapsedSeconds();
  PM_METRIC_HISTOGRAM("partminer.phase.merge_ms")
      ->Observe(result.merge_seconds * 1e3);

  // Classification (Section 4.5) from the round's transitions: IF with the
  // new info, FI with the old, UF as what remains of the new set.
  Stopwatch classify_watch;
  {
    PM_TRACE_SPAN("classify", {{"patterns", next.size()}});
    for (const DfsCode& code : transitions.became_frequent) {
      result.if_.Upsert(*next.Find(code));
    }
    for (const DfsCode& code : transitions.became_infrequent) {
      result.fi.Upsert(*old_patterns.Find(code));
    }
    result.uf = next.size() - result.if_.size();
  }
  result.verify_seconds = classify_watch.ElapsedSeconds();
  PM_METRIC_HISTOGRAM("partminer.phase.verify_ms")
      ->Observe(result.verify_seconds * 1e3);

  result.patterns = next;
  state->mutable_patterns() = std::move(next);
  return result;
}

}  // namespace partminer
