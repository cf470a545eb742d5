#ifndef PARTMINER_DATAGEN_UPDATE_GENERATOR_H_
#define PARTMINER_DATAGEN_UPDATE_GENERATOR_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace partminer {

/// The three update kinds of Section 5: (1) relabel an existing vertex or
/// edge, (2) add a new edge between existing vertices, (3) add a new vertex
/// together with an edge attaching it.
enum class UpdateKind {
  kRelabel = 0,
  kAddEdge = 1,
  kAddVertex = 2,
};

/// One explicit graph edit of one of the three kinds. ApplyUpdates draws
/// its random updates in this form; the service protocol and the load
/// generator speak it, so a client can ship an edit over the wire and a
/// session can validate it (ValidateEdit) against the live database before
/// mutating anything.
struct EditOp {
  UpdateKind kind = UpdateKind::kRelabel;
  /// True for kRelabel targeting the edge {u, v} instead of vertex u.
  bool edge_target = false;
  int graph = 0;  // Database index.
  VertexId u = 0;
  VertexId v = 0;        // kAddEdge / edge relabel second endpoint.
  Label label = 0;       // New vertex/edge label; vertex label for kAddVertex.
  Label edge_label = 0;  // Attaching-edge label for kAddVertex (u = attach).

  std::string ToString() const;
};

struct UpdateOptions {
  /// Fraction of database graphs that receive updates (the paper varies this
  /// from 20% to 80%).
  double fraction_graphs = 0.4;

  /// Number of individual updates applied to each selected graph.
  int updates_per_graph = 2;

  /// Update kinds to sample from (uniformly).
  std::vector<UpdateKind> kinds = {UpdateKind::kRelabel, UpdateKind::kAddEdge,
                                   UpdateKind::kAddVertex};

  /// Probability that a relabel introduces a label outside [0, num_labels)
  /// ("existing or new labels" in the paper).
  double new_label_probability = 0.2;

  /// Probability that an update targets a hotspot vertex (one with positive
  /// update frequency) when the graph has any. Models the temporal locality
  /// that the isolation criterion of Section 4.1 exploits.
  double hotspot_locality = 0.8;

  uint64_t seed = 7;
};

/// What an update round touched: which graphs changed, and which vertices
/// (by database index and vertex id, post-update ids for new vertices).
struct UpdateLog {
  std::vector<int> updated_graphs;
  std::vector<std::pair<int, VertexId>> touched_vertices;
};

/// Applies one valid edit to graph `op.graph` of `db`, the only code that
/// turns an EditOp into a graph change: a relabel sets one label, an added
/// edge joins u and v, an added vertex gets label `label` and an edge
/// labeled `edge_label` to u. Every vertex the edit touches (both endpoints
/// of an edge, the new vertex after u) gets its update frequency bumped
/// and is appended to `log->touched_vertices`; `log->updated_graphs` is the
/// caller's. The caller has checked the edit (ValidateEdit).
void ApplyEdit(GraphDatabase* db, const EditOp& op, UpdateLog* log);

/// Applies random updates to `db` in place: each one is drawn as an EditOp
/// and applied through ApplyEdit, so every touched vertex gets its update
/// frequency bumped. `num_labels` is the generator's N parameter.
UpdateLog ApplyUpdates(GraphDatabase* db, int num_labels,
                       const UpdateOptions& options);

}  // namespace partminer

#endif  // PARTMINER_DATAGEN_UPDATE_GENERATOR_H_
