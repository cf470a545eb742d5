#include "partition/db_partition.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "partition/multilevel.h"

namespace partminer {

namespace {

/// Builds the merge tree over [lo, hi); returns the node index.
int BuildTree(int lo, int hi, int depth, std::vector<MergeTreeNode>* tree) {
  const int index = static_cast<int>(tree->size());
  tree->push_back(MergeTreeNode{lo, hi, -1, -1, depth});
  if (hi - lo > 1) {
    const int mid = lo + (hi - lo + 1) / 2;  // Left child gets the ceiling.
    const int left = BuildTree(lo, mid, depth + 1, tree);
    const int right = BuildTree(mid, hi, depth + 1, tree);
    (*tree)[index].left = left;
    (*tree)[index].right = right;
  }
  return index;
}

/// Bisects the subgraph of `g` induced on `owned` using the configured
/// criteria; returns the side (0/1) of each entry of `owned`.
std::vector<int> BisectOwned(const Graph& g, const std::vector<VertexId>& owned,
                             const PartitionOptions& options) {
  const int m = static_cast<int>(owned.size());
  if (m < 2) return std::vector<int>(m, 0);

  // Induced subgraph on the owned vertices.
  std::vector<VertexId> to_local(g.VertexCount(), -1);
  for (int i = 0; i < m; ++i) to_local[owned[i]] = i;
  Graph sub(m);
  for (int i = 0; i < m; ++i) {
    sub.set_vertex_label(i, g.vertex_label(owned[i]));
    sub.set_update_freq(i, g.update_freq(owned[i]));
  }
  for (const EdgeEntry& e : g.UndirectedEdges()) {
    if (to_local[e.from] != -1 && to_local[e.to] != -1) {
      sub.AddEdge(to_local[e.from], to_local[e.to], e.label);
    }
  }

  switch (options.criteria) {
    case PartitionCriteria::kIsolation:
      return GraphPart(sub, GraphPartOptions{1.0, 0.0}).side;
    case PartitionCriteria::kMinCut:
      return GraphPart(sub, GraphPartOptions{0.0, 1.0}).side;
    case PartitionCriteria::kCombined: {
      // Equation (1) mixes an average frequency (O(1)) with an edge count
      // (O(|E|)); with the paper's lambda1 = lambda2 = 1 the cut term
      // drowns the isolation term on any non-trivial graph. Scale the
      // isolation weight by the subgraph's edge count so "isolate updated
      // vertices AND minimize connectivity" holds with isolation as the
      // primary criterion and the cut as tie-breaker, which is the behavior
      // Figure 13(b) attributes to Partition3.
      const double lambda1 = std::max(1, sub.EdgeCount());
      return GraphPart(sub, GraphPartOptions{lambda1, 1.0}).side;
    }
    case PartitionCriteria::kMultilevel: {
      MultilevelOptions ml;
      ml.seed = options.seed;
      return MultilevelBisect(sub, ml);
    }
  }
  PM_CHECK(false);
  return {};
}

/// Recursively assigns the `owned` vertices of `g` to units [lo, hi).
void AssignRecursive(const Graph& g, const std::vector<VertexId>& owned,
                     int lo, int hi, const PartitionOptions& options,
                     std::vector<int>* assignment) {
  if (hi - lo == 1) {
    for (const VertexId v : owned) (*assignment)[v] = lo;
    return;
  }
  const std::vector<int> side = BisectOwned(g, owned, options);
  std::vector<VertexId> left, right;
  for (size_t i = 0; i < owned.size(); ++i) {
    (side[i] == 0 ? left : right).push_back(owned[i]);
  }
  const int mid = lo + (hi - lo + 1) / 2;
  AssignRecursive(g, left, lo, mid, options, assignment);
  AssignRecursive(g, right, mid, hi, options, assignment);
}

}  // namespace

const char* PartitionCriteriaName(PartitionCriteria c) {
  switch (c) {
    case PartitionCriteria::kIsolation: return "Partition1";
    case PartitionCriteria::kMinCut: return "Partition2";
    case PartitionCriteria::kCombined: return "Partition3";
    case PartitionCriteria::kMultilevel: return "METIS";
  }
  return "?";
}

PartitionedDatabase PartitionedDatabase::Create(
    const GraphDatabase& db, const PartitionOptions& options) {
  PM_CHECK_GE(options.k, 1);
  PM_CHECK_LE(options.k, SetWord::kMaxUnits);
  PartitionedDatabase out;
  out.k_ = options.k;
  BuildTree(0, options.k, 0, &out.tree_);

  out.assignment_.resize(db.size());
  for (int i = 0; i < db.size(); ++i) {
    const Graph& g = db.graph(i);
    out.assignment_[i].assign(g.VertexCount(), 0);
    std::vector<VertexId> all(g.VertexCount());
    for (VertexId v = 0; v < g.VertexCount(); ++v) all[v] = v;
    AssignRecursive(g, all, 0, options.k, options, &out.assignment_[i]);
  }
  return out;
}

GraphDatabase PartitionedDatabase::Materialize(const GraphDatabase& db,
                                               int lo, int hi) const {
  PM_CHECK_EQ(db.size(), static_cast<int>(assignment_.size()));
  GraphDatabase out;
  for (int i = 0; i < db.size(); ++i) {
    const Graph& g = db.graph(i);
    const std::vector<int>& unit = assignment_[i];
    PM_CHECK_EQ(static_cast<int>(unit.size()), g.VertexCount());
    Graph sub;
    std::vector<VertexId> remap(g.VertexCount(), -1);
    auto ensure = [&](VertexId v) {
      if (remap[v] == -1) {
        remap[v] = sub.AddVertex(g.vertex_label(v));
        sub.set_update_freq(remap[v], g.update_freq(v));
      }
      return remap[v];
    };
    for (const EdgeEntry& e : g.UndirectedEdges()) {
      const bool from_in = unit[e.from] >= lo && unit[e.from] < hi;
      const bool to_in = unit[e.to] >= lo && unit[e.to] < hi;
      if (from_in || to_in) {
        sub.AddEdge(ensure(e.from), ensure(e.to), e.label);
      }
    }
    out.Add(std::move(sub), db.gid(i));
  }
  return out;
}

void PartitionedDatabase::ExtendAssignments(const GraphDatabase& db) {
  PM_CHECK_EQ(db.size(), static_cast<int>(assignment_.size()));
  for (int i = 0; i < db.size(); ++i) {
    const Graph& g = db.graph(i);
    std::vector<int>& unit = assignment_[i];
    const int old_n = static_cast<int>(unit.size());
    if (g.VertexCount() == old_n) continue;
    unit.resize(g.VertexCount(), -1);
    // New vertices adopt the unit of their first already-assigned neighbor.
    // Updates attach new vertices to existing ones, so one sweep suffices;
    // a second sweep covers chains of new vertices.
    for (int pass = 0; pass < 2; ++pass) {
      for (VertexId v = old_n; v < g.VertexCount(); ++v) {
        if (unit[v] != -1) continue;
        for (const EdgeEntry& e : g.adjacency(v)) {
          if (unit[e.to] != -1) {
            unit[v] = unit[e.to];
            break;
          }
        }
      }
    }
    for (VertexId v = old_n; v < g.VertexCount(); ++v) {
      if (unit[v] == -1) unit[v] = 0;  // Orphan: default to unit 0.
    }
  }
}

SetWord PartitionedDatabase::TouchedUnits(
    const GraphDatabase& db,
    const std::vector<std::pair<int, VertexId>>& touched) const {
  SetWord w;
  for (const auto& [graph_index, v] : touched) {
    const Graph& g = db.graph(graph_index);
    const std::vector<int>& unit = assignment_[graph_index];
    w.Set(unit[v]);
    for (const EdgeEntry& e : g.adjacency(v)) w.Set(unit[e.to]);
  }
  return w;
}

int64_t PartitionedDatabase::TotalCutEdges(const GraphDatabase& db) const {
  if (k_ == 0) return 0;  // Default-constructed: no units, no cut.
  PM_CHECK_EQ(db.size(), static_cast<int>(assignment_.size()));
  int64_t total = 0;
  for (int i = 0; i < db.size(); ++i) {
    PM_CHECK_EQ(db.graph(i).VertexCount(),
                static_cast<int>(assignment_[i].size()));
    for (const EdgeEntry& e : db.graph(i).UndirectedEdges()) {
      if (assignment_[i][e.from] != assignment_[i][e.to]) ++total;
    }
  }
  return total;
}

double PartitionedDatabase::AverageTouchedUnits(
    const GraphDatabase& db,
    const std::vector<std::pair<int, VertexId>>& touched) const {
  if (touched.empty()) return 0;
  double total = 0;
  for (const auto& entry : touched) {
    total += TouchedUnits(db, {entry}).Count();
  }
  return total / touched.size();
}

}  // namespace partminer
