#include "datagen/update_generator.h"

#include <algorithm>

#include "common/logging.h"
#include "common/random.h"

namespace partminer {

namespace {

/// Picks an update target vertex, preferring hotspots (positive ufreq) and,
/// among them, *interior* ones (all neighbors also hot): updates then stay
/// inside the hot region, which is the behavior the isolation criterion of
/// Section 4.1 is designed to exploit.
VertexId PickVertex(Rng* rng, const Graph& g, double hotspot_locality) {
  if (rng->Bernoulli(hotspot_locality)) {
    std::vector<VertexId> hot;
    std::vector<VertexId> interior;
    for (VertexId v = 0; v < g.VertexCount(); ++v) {
      if (g.update_freq(v) == 0) continue;
      hot.push_back(v);
      bool all_hot = true;
      for (const EdgeEntry& e : g.adjacency(v)) {
        if (g.update_freq(e.to) == 0) {
          all_hot = false;
          break;
        }
      }
      if (all_hot) interior.push_back(v);
    }
    if (!interior.empty()) return interior[rng->Uniform(interior.size())];
    if (!hot.empty()) return hot[rng->Uniform(hot.size())];
  }
  return static_cast<VertexId>(rng->Uniform(g.VertexCount()));
}

Label PickLabel(Rng* rng, int num_labels, double new_label_probability) {
  if (rng->Bernoulli(new_label_probability)) {
    return static_cast<Label>(num_labels + rng->Uniform(4));
  }
  return static_cast<Label>(rng->Uniform(num_labels));
}

/// Draws one update of database graph `gi`, `g`: its kind, then its
/// targets and labels, the random calls in a fixed order. False when an
/// added edge finds no free vertex pair.
bool DrawEdit(Rng* rng, const Graph& g, int gi, int num_labels,
              const UpdateOptions& options, EditOp* op) {
  const auto vertex = [&] {
    return PickVertex(rng, g, options.hotspot_locality);
  };
  const auto label = [&] {
    return PickLabel(rng, num_labels, options.new_label_probability);
  };
  op->kind = options.kinds[rng->Uniform(options.kinds.size())];
  op->graph = gi;
  switch (op->kind) {
    case UpdateKind::kRelabel: {
      op->u = vertex();
      if (rng->Bernoulli(0.5) || g.Degree(op->u) == 0) {
        op->label = label();  // Relabel the vertex itself.
        return true;
      }
      // Relabel an incident edge, preferring one staying inside the hot
      // region.
      const auto& adj = g.adjacency(op->u);
      std::vector<const EdgeEntry*> hot_edges;
      for (const EdgeEntry& candidate : adj) {
        if (g.update_freq(candidate.to) > 0) hot_edges.push_back(&candidate);
      }
      const EdgeEntry& e =
          !hot_edges.empty() && rng->Bernoulli(options.hotspot_locality)
              ? *hot_edges[rng->Uniform(hot_edges.size())]
              : adj[rng->Uniform(adj.size())];
      op->edge_target = true;
      op->u = e.from;
      op->v = e.to;
      op->label = label();
      return true;
    }
    case UpdateKind::kAddEdge:
      if (g.VertexCount() < 2) return false;
      op->u = vertex();
      for (int attempt = 0; attempt < 8; ++attempt) {
        // The second endpoint is also locality-biased: new edges appear
        // inside the frequently-updated region, which is what the
        // isolation criterion of Section 4.1 banks on.
        op->v = vertex();
        if (op->v == op->u || g.HasEdge(op->u, op->v)) continue;
        op->label = label();
        return true;
      }
      return false;
    case UpdateKind::kAddVertex:
      op->u = vertex();  // The attach point.
      op->label = label();
      op->edge_label = label();
      return true;
  }
  return false;
}

}  // namespace

void ApplyEdit(GraphDatabase* db, const EditOp& op, UpdateLog* log) {
  Graph& g = db->mutable_graph(op.graph);
  const auto touch = [&](VertexId v) {
    g.BumpUpdateFreq(v);
    log->touched_vertices.emplace_back(op.graph, v);
  };
  switch (op.kind) {
    case UpdateKind::kRelabel:
      if (op.edge_target) {
        g.SetEdgeLabel(op.u, op.v, op.label);
        touch(op.u);
        touch(op.v);
      } else {
        g.set_vertex_label(op.u, op.label);
        touch(op.u);
      }
      break;
    case UpdateKind::kAddEdge:
      g.AddEdge(op.u, op.v, op.label);
      touch(op.u);
      touch(op.v);
      break;
    case UpdateKind::kAddVertex: {
      const VertexId added = g.AddVertex(op.label);
      g.AddEdge(op.u, added, op.edge_label);
      touch(op.u);
      touch(added);
      break;
    }
  }
}

UpdateLog ApplyUpdates(GraphDatabase* db, int num_labels,
                       const UpdateOptions& options) {
  PM_CHECK(!options.kinds.empty());
  Rng rng(options.seed);
  UpdateLog log;

  for (int gi = 0; gi < db->size(); ++gi) {
    if (!rng.Bernoulli(options.fraction_graphs)) continue;
    const Graph& g = db->graph(gi);
    if (g.VertexCount() == 0) continue;
    log.updated_graphs.push_back(gi);

    for (int step = 0; step < options.updates_per_graph; ++step) {
      EditOp op;
      if (DrawEdit(&rng, g, gi, num_labels, options, &op)) {
        ApplyEdit(db, op, &log);
      }
    }
  }
  return log;
}

}  // namespace partminer
