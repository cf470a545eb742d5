#include "datagen/edit_stream.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/random.h"

namespace partminer {

namespace {

const char* KindName(const EditOp& op) {
  switch (op.kind) {
    case UpdateKind::kRelabel:
      return op.edge_target ? "relabel_edge" : "relabel";
    case UpdateKind::kAddEdge:
      return "add_edge";
    case UpdateKind::kAddVertex:
      return "add_vertex";
  }
  return "?";
}

}  // namespace

std::string EditOp::ToString() const {
  std::ostringstream out;
  out << KindName(*this) << " g" << graph;
  switch (kind) {
    case UpdateKind::kRelabel:
      if (edge_target) {
        out << " {" << u << "," << v << "} -> " << label;
      } else {
        out << " v" << u << " -> " << label;
      }
      break;
    case UpdateKind::kAddEdge:
      out << " +{" << u << "," << v << "} label " << label;
      break;
    case UpdateKind::kAddVertex:
      out << " attach v" << u << " vlabel " << label << " elabel "
          << edge_label;
      break;
  }
  return out.str();
}

Status ValidateEdit(const GraphDatabase& db, const EditOp& op) {
  if (op.graph < 0 || op.graph >= db.size()) {
    return Status::InvalidArgument("graph index " + std::to_string(op.graph) +
                                   " out of range [0, " +
                                   std::to_string(db.size()) + ")");
  }
  const Graph& g = db.graph(op.graph);
  const auto vertex_ok = [&g](VertexId v) {
    return v >= 0 && v < g.VertexCount();
  };
  if (op.label < 0) return Status::InvalidArgument("negative label");
  switch (op.kind) {
    case UpdateKind::kRelabel:
      if (!vertex_ok(op.u)) {
        return Status::InvalidArgument("vertex " + std::to_string(op.u) +
                                       " out of range");
      }
      if (op.edge_target) {
        if (!vertex_ok(op.v)) {
          return Status::InvalidArgument("vertex " + std::to_string(op.v) +
                                         " out of range");
        }
        if (!g.HasEdge(op.u, op.v)) {
          return Status::NotFound("no edge {" + std::to_string(op.u) + "," +
                                  std::to_string(op.v) + "} to relabel");
        }
      }
      return Status::Ok();
    case UpdateKind::kAddEdge:
      if (!vertex_ok(op.u) || !vertex_ok(op.v)) {
        return Status::InvalidArgument("edge endpoint out of range");
      }
      if (op.u == op.v) return Status::InvalidArgument("self-loop");
      if (g.HasEdge(op.u, op.v)) {
        return Status::InvalidArgument("edge {" + std::to_string(op.u) + "," +
                                       std::to_string(op.v) +
                                       "} already exists");
      }
      return Status::Ok();
    case UpdateKind::kAddVertex:
      if (op.edge_label < 0) {
        return Status::InvalidArgument("negative edge label");
      }
      if (!vertex_ok(op.u)) {
        return Status::InvalidArgument("attach vertex " +
                                       std::to_string(op.u) + " out of range");
      }
      return Status::Ok();
  }
  return Status::InvalidArgument("unknown edit kind");
}

EditBatchOutcome ApplyEditBatch(GraphDatabase* db,
                                const std::vector<EditOp>& edits,
                                UpdateLog* log) {
  EditBatchOutcome outcome;
  for (const EditOp& op : edits) {
    const Status valid = ValidateEdit(*db, op);
    if (!valid.ok()) {
      ++outcome.rejected;
      if (outcome.first_rejection.empty()) {
        outcome.first_rejection = op.ToString() + ": " + valid.ToString();
      }
      continue;
    }
    ApplyEdit(db, op, log);
    ++outcome.applied;
    if (std::find(log->updated_graphs.begin(), log->updated_graphs.end(),
                  op.graph) == log->updated_graphs.end()) {
      log->updated_graphs.push_back(op.graph);
    }
  }
  return outcome;
}

std::vector<StreamItem> GenerateEditStream(const GraphDatabase& db,
                                           const EditStreamOptions& options) {
  Rng rng(options.seed);
  std::vector<StreamItem> items;
  items.reserve(options.requests);

  // Pool of initially-non-adjacent vertex pairs, one use each: add_edge
  // edits drawn from it can never collide regardless of how batches from
  // different connections interleave. Capped per graph so pool construction
  // stays linear-ish on dense graphs.
  struct EdgeSlot {
    int graph;
    VertexId u, v;
  };
  std::vector<EdgeSlot> edge_pool;
  for (int gi = 0; gi < db.size(); ++gi) {
    const Graph& g = db.graph(gi);
    int collected = 0;
    for (VertexId u = 0; u < g.VertexCount() && collected < 64; ++u) {
      for (VertexId v = u + 1; v < g.VertexCount() && collected < 64; ++v) {
        if (!g.HasEdge(u, v)) {
          edge_pool.push_back({gi, u, v});
          ++collected;
        }
      }
    }
  }
  // Seeded shuffle so consumption order is deterministic.
  for (size_t i = edge_pool.size(); i > 1; --i) {
    std::swap(edge_pool[i - 1], edge_pool[rng.Uniform(i)]);
  }
  size_t next_edge_slot = 0;

  const double total_weight = options.relabel_weight +
                              options.add_edge_weight +
                              options.add_vertex_weight;
  PM_CHECK_GT(total_weight, 0.0);

  for (int r = 0; r < options.requests; ++r) {
    StreamItem item;
    if (rng.Bernoulli(options.update_fraction) && db.size() > 0) {
      item.is_update = true;
      const int edits = 1 + static_cast<int>(
                                rng.Uniform(options.edits_per_update));
      for (int e = 0; e < edits; ++e) {
        EditOp op;
        op.graph = static_cast<int>(rng.Uniform(db.size()));
        const Graph& g = db.graph(op.graph);
        if (g.VertexCount() == 0) continue;
        double pick = rng.UniformDouble() * total_weight;
        if (pick < options.relabel_weight) {
          op.kind = UpdateKind::kRelabel;
          op.u = static_cast<VertexId>(rng.Uniform(g.VertexCount()));
          op.label = static_cast<Label>(rng.Uniform(options.num_labels));
        } else if (pick < options.relabel_weight + options.add_edge_weight &&
                   next_edge_slot < edge_pool.size()) {
          const EdgeSlot slot = edge_pool[next_edge_slot++];
          op.kind = UpdateKind::kAddEdge;
          op.graph = slot.graph;
          op.u = slot.u;
          op.v = slot.v;
          op.label = static_cast<Label>(rng.Uniform(options.num_labels));
        } else {
          op.kind = UpdateKind::kAddVertex;
          // Attach to an initial vertex: those exist from epoch 0 onward.
          op.u = static_cast<VertexId>(rng.Uniform(g.VertexCount()));
          op.label = static_cast<Label>(rng.Uniform(options.num_labels));
          op.edge_label = static_cast<Label>(rng.Uniform(options.num_labels));
        }
        item.edits.push_back(op);
      }
      if (item.edits.empty()) item.is_update = false;
    }
    if (!item.is_update) {
      const int spread = std::max(
          1, static_cast<int>(options.resident_support *
                              options.query_support_spread) -
                 options.resident_support + 1);
      item.query_support =
          options.resident_support + static_cast<int>(rng.Uniform(spread));
      item.query_limit = rng.Bernoulli(0.05) ? 5 : 0;
    }
    items.push_back(std::move(item));
  }
  return items;
}

Status WriteEditStream(const std::vector<StreamItem>& items,
                       std::ostream& out) {
  out << "editstream v1\n";
  for (const StreamItem& item : items) {
    if (!item.is_update) {
      out << "q " << item.query_support << " " << item.query_limit << "\n";
      continue;
    }
    out << "u " << item.edits.size() << "\n";
    for (const EditOp& op : item.edits) {
      out << "e " << KindName(op) << " " << op.graph;
      switch (op.kind) {
        case UpdateKind::kRelabel:
          if (op.edge_target) {
            out << " " << op.u << " " << op.v << " " << op.label;
          } else {
            out << " " << op.u << " " << op.label;
          }
          break;
        case UpdateKind::kAddEdge:
          out << " " << op.u << " " << op.v << " " << op.label;
          break;
        case UpdateKind::kAddVertex:
          out << " " << op.u << " " << op.label << " " << op.edge_label;
          break;
      }
      out << "\n";
    }
  }
  if (!out) return Status::IoError("edit stream write failed");
  return Status::Ok();
}

Status WriteEditStreamFile(const std::vector<StreamItem>& items,
                           const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path);
  return WriteEditStream(items, out).WithContext("writing " + path);
}

Status ReadEditStream(std::istream& in, std::vector<StreamItem>* items) {
  items->clear();
  std::string line;
  int line_no = 0;
  if (!std::getline(in, line) || line != "editstream v1") {
    return Status::Corruption("missing 'editstream v1' header");
  }
  ++line_no;
  int pending_edits = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream tokens(line);
    std::string tag;
    tokens >> tag;
    const auto error = [&](const std::string& what) {
      return Status::Corruption("edit stream line " + std::to_string(line_no) +
                                ": " + what);
    };
    if (tag == "q") {
      if (pending_edits > 0) return error("query inside an update batch");
      StreamItem item;
      if (!(tokens >> item.query_support >> item.query_limit)) {
        return error("bad query line");
      }
      items->push_back(std::move(item));
    } else if (tag == "u") {
      if (pending_edits > 0) return error("update inside an update batch");
      if (!(tokens >> pending_edits) || pending_edits < 0) {
        return error("bad update header");
      }
      StreamItem item;
      item.is_update = true;
      items->push_back(std::move(item));
      if (pending_edits == 0) items->back().is_update = true;
    } else if (tag == "e") {
      if (pending_edits <= 0) return error("edit outside an update batch");
      --pending_edits;
      std::string kind;
      EditOp op;
      if (!(tokens >> kind >> op.graph)) return error("bad edit line");
      bool parsed = false;
      if (kind == "relabel") {
        op.kind = UpdateKind::kRelabel;
        parsed = static_cast<bool>(tokens >> op.u >> op.label);
      } else if (kind == "relabel_edge") {
        op.kind = UpdateKind::kRelabel;
        op.edge_target = true;
        parsed = static_cast<bool>(tokens >> op.u >> op.v >> op.label);
      } else if (kind == "add_edge") {
        op.kind = UpdateKind::kAddEdge;
        parsed = static_cast<bool>(tokens >> op.u >> op.v >> op.label);
      } else if (kind == "add_vertex") {
        op.kind = UpdateKind::kAddVertex;
        parsed = static_cast<bool>(tokens >> op.u >> op.label >> op.edge_label);
      } else {
        return error("unknown edit kind '" + kind + "'");
      }
      if (!parsed) return error("bad " + kind + " edit line");
      items->back().edits.push_back(op);
    } else {
      return error("unknown tag '" + tag + "'");
    }
  }
  if (pending_edits > 0) return Status::Corruption("truncated update batch");
  return Status::Ok();
}

Status ReadEditStreamFile(const std::string& path,
                          std::vector<StreamItem>* items) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  return ReadEditStream(in, items).WithContext("reading " + path);
}

}  // namespace partminer
