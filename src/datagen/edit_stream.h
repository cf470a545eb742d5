#ifndef PARTMINER_DATAGEN_EDIT_STREAM_H_
#define PARTMINER_DATAGEN_EDIT_STREAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "datagen/update_generator.h"
#include "graph/graph.h"

namespace partminer {

/// Validates `op` against the current shape of `db` without mutating it.
/// Rejections (vertex out of range, duplicate edge, self-loop, negative
/// label) come back as InvalidArgument naming the offending field.
Status ValidateEdit(const GraphDatabase& db, const EditOp& op);

/// Result of applying one edit batch: every edit is individually atomic —
/// validated against the database state its predecessors produced, applied
/// if valid, skipped (and counted) otherwise. There is no torn state to
/// roll back, and a batch mixing valid and stale edits degrades to the
/// valid subset instead of failing wholesale.
struct EditBatchOutcome {
  int applied = 0;
  int rejected = 0;
  std::string first_rejection;  // Empty when rejected == 0.
};

/// Applies `edits` in order, each validated and then applied through
/// ApplyEdit, as ApplyUpdates applies its random ones, so IncPartMiner sees
/// the same shape of evidence. Each edit's graph is added to
/// `log->updated_graphs` once.
EditBatchOutcome ApplyEditBatch(GraphDatabase* db,
                                const std::vector<EditOp>& edits,
                                UpdateLog* log);

/// One request of a generated service workload: either an update batch or
/// a frequent-pattern query.
struct StreamItem {
  bool is_update = false;
  std::vector<EditOp> edits;  // is_update only.
  int query_support = 0;      // 0 = the session's resident support.
  int query_limit = 0;        // Patterns to return (0 = count + digest only).
};

struct EditStreamOptions {
  uint64_t seed = 1;
  int requests = 1000;
  /// Fraction of requests that are update batches (the rest are queries).
  double update_fraction = 0.1;
  int edits_per_update = 4;
  /// Relative weights of the three edit kinds inside update batches.
  double relabel_weight = 0.5;
  double add_edge_weight = 0.3;
  double add_vertex_weight = 0.2;
  int num_labels = 20;
  /// Query support values are drawn from [resident, resident * this].
  double query_support_spread = 1.5;
  int resident_support = 2;
};

/// Generates a seeded mixed update/query stream that stays valid no matter
/// how the update batches interleave across client connections:
///  - relabels and add_vertex attachments only reference vertices of the
///    *initial* database (which never disappear — the update model only
///    adds),
///  - every add_edge uses a distinct initially-non-adjacent vertex pair, so
///    no two edits in the whole stream can collide into a duplicate edge.
/// The load generator distributes the items round-robin over its
/// connections; any serialization of them is a valid history.
std::vector<StreamItem> GenerateEditStream(const GraphDatabase& db,
                                           const EditStreamOptions& options);

/// Replay persistence: a line-oriented text format ("editstream v1") so a
/// measured workload can be re-run bit-identically against a later build.
///   q <support> <limit>
///   u <n>            (followed by n edit lines)
///   e relabel <graph> <vertex> <label>
///   e relabel_edge <graph> <u> <v> <label>
///   e add_edge <graph> <u> <v> <label>
///   e add_vertex <graph> <attach> <vertex_label> <edge_label>
Status WriteEditStream(const std::vector<StreamItem>& items,
                       std::ostream& out);
Status WriteEditStreamFile(const std::vector<StreamItem>& items,
                           const std::string& path);
Status ReadEditStream(std::istream& in, std::vector<StreamItem>* items);
Status ReadEditStreamFile(const std::string& path,
                          std::vector<StreamItem>* items);

}  // namespace partminer

#endif  // PARTMINER_DATAGEN_EDIT_STREAM_H_
