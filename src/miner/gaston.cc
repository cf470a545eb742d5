#include "miner/gaston.h"

#include <atomic>
#include <vector>

#include "common/logging.h"
#include "graph/canonical.h"
#include "miner/engine.h"
#include "obs/metrics.h"

namespace partminer {

namespace {

enum class Phase : int { kPath = 0, kTree = 1, kCyclic = 2 };

/// Phase of the pattern a code encodes. A code with a backward edge is
/// cyclic; otherwise it encodes a free tree, which is a path iff no DFS
/// vertex has degree above two.
Phase PhaseOf(const DfsCode& code) {
  std::vector<int> degree(code.VertexCount(), 0);
  for (const DfsEdge& e : code.edges()) {
    if (!e.IsForward()) return Phase::kCyclic;
    ++degree[e.from];
    ++degree[e.to];
  }
  for (const int d : degree) {
    if (d > 2) return Phase::kTree;
  }
  return Phase::kPath;
}

/// ChildRank of the growth loop: the phase of a child code.
int PhaseRank(const DfsCode& code) { return static_cast<int>(PhaseOf(code)); }

/// Label sequences of a path pattern: vertex labels v[0..n] and edge labels
/// e[0..n-1] (e[k] joins v[k] and v[k+1]), extracted by walking the pattern
/// graph from one endpoint. Requires a path pattern.
struct PathLabels {
  std::vector<Label> vertex;
  std::vector<Label> edge;
};

PathLabels ExtractPathLabels(const Graph& g) {
  PathLabels out;
  const int n = g.VertexCount();
  VertexId start = -1;
  for (VertexId v = 0; v < n; ++v) {
    PM_CHECK_LE(g.Degree(v), 2);
    if (g.Degree(v) == 1) start = v;
  }
  if (start == -1) start = 0;  // Single vertex would be degenerate.
  PM_CHECK_GE(start, 0);

  VertexId prev = -1, cur = start;
  out.vertex.push_back(g.vertex_label(cur));
  for (int step = 0; step + 1 < n; ++step) {
    for (const EdgeEntry& e : g.adjacency(cur)) {
      if (e.to == prev) continue;
      out.edge.push_back(e.label);
      out.vertex.push_back(g.vertex_label(e.to));
      prev = cur;
      cur = e.to;
      break;
    }
  }
  PM_CHECK_EQ(static_cast<int>(out.vertex.size()), n);
  return out;
}

/// Builds the DFS code of the path rooted at position `root`, exploring the
/// branch toward position 0 first when `toward_zero_first` is set.
DfsCode BuildPathCode(const PathLabels& labels, int root,
                      bool toward_zero_first) {
  const int n = static_cast<int>(labels.vertex.size());
  DfsCode code;
  // Emits the branch walking path positions root+step, root+2*step, ... as
  // forward edges. The first edge descends from DFS index 0 (the root); new
  // vertices take DFS indices first_dfs, first_dfs+1, ...
  auto emit_branch = [&](int step, int first_dfs) {
    int parent_dfs = 0;
    int dfs = first_dfs;
    for (int p = root + step; p >= 0 && p < n; p += step) {
      const int edge_index = step > 0 ? p - 1 : p;
      code.Append(DfsEdge{parent_dfs, dfs, labels.vertex[p - step],
                          labels.edge[edge_index], labels.vertex[p]});
      parent_dfs = dfs;
      ++dfs;
    }
  };

  if (toward_zero_first) {
    emit_branch(-1, 1);
    emit_branch(+1, root + 1);  // Branch toward 0 used DFS indices 1..root.
  } else {
    emit_branch(+1, 1);
    emit_branch(-1, (n - 1 - root) + 1);
  }
  return code;
}

}  // namespace

bool IsMinimalPathCode(const DfsCode& code) {
  const Graph g = code.ToGraph();
  const PathLabels labels = ExtractPathLabels(g);
  const int n = static_cast<int>(labels.vertex.size());
  // Every valid DFS code of a path: pick a root position; fully explore one
  // branch, then the other. Mid-branch switching cannot complete (the
  // abandoned branch becomes unreachable), so this candidate set is exactly
  // the set of valid codes.
  for (int root = 0; root < n; ++root) {
    for (const bool toward_zero_first : {true, false}) {
      if (root == 0 && toward_zero_first) continue;       // Empty branch.
      if (root == n - 1 && !toward_zero_first) continue;  // Empty branch.
      const DfsCode candidate = BuildPathCode(labels, root, toward_zero_first);
      if (candidate.Compare(code) < 0) return false;
    }
  }
  return true;
}

PatternSet GastonMiner::Mine(const GraphDatabase& db,
                             const MinerOptions& options) {
  // Gaston's phase discipline: refinements that keep the pattern in an
  // earlier phase are explored before refinements that advance it (phases
  // never regress along a DFS-code prefix chain), which is the growth loop's
  // stable visit order by phase. Paths are tested by the closed-form path
  // check. The check counters are atomic: with a pool, the test runs on
  // several workers at once.
  std::atomic<int64_t> path_fast_checks{0};
  std::atomic<int64_t> generic_min_checks{0};
  const engine::MinimalityCheck check = [&](const DfsCode& code, int rank) {
    if (rank == static_cast<int>(Phase::kPath)) {
      path_fast_checks.fetch_add(1, std::memory_order_relaxed);
      PM_METRIC_COUNTER("miner.minimality_checks")->Increment();
      return IsMinimalPathCode(code);
    }
    generic_min_checks.fetch_add(1, std::memory_order_relaxed);
    return IsMinimalDfsCode(code);
  };
  PatternSet out = engine::GrowFromRoots(db, options, &PhaseRank, check);

  stats_ = GastonStats();
  for (const PatternInfo& p : out.patterns()) {
    switch (PhaseOf(p.code)) {
      case Phase::kPath: ++stats_.frequent_paths; break;
      case Phase::kTree: ++stats_.frequent_trees; break;
      case Phase::kCyclic: ++stats_.frequent_cyclic; break;
    }
  }
  stats_.path_fast_checks = path_fast_checks.load();
  stats_.generic_min_checks = generic_min_checks.load();

  PM_METRIC_COUNTER("gaston.frequent_paths")->Add(stats_.frequent_paths);
  PM_METRIC_COUNTER("gaston.frequent_trees")->Add(stats_.frequent_trees);
  PM_METRIC_COUNTER("gaston.frequent_cyclic")->Add(stats_.frequent_cyclic);
  PM_METRIC_COUNTER("gaston.path_fast_checks")->Add(stats_.path_fast_checks);
  PM_METRIC_COUNTER("gaston.generic_min_checks")
      ->Add(stats_.generic_min_checks);
  return out;
}

}  // namespace partminer
