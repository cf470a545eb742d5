#include "partition/multilevel.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <vector>

#include "common/logging.h"
#include "common/random.h"

namespace partminer {

namespace {

/// Stop coarsening once the graph has at most this many vertices.
constexpr int kCoarsenTo = 24;
/// Boundary-refinement passes per uncoarsening level.
constexpr int kRefinePasses = 4;
/// Allowed deviation of a side's vertex weight from half, as a fraction.
constexpr double kBalanceSlack = 0.1;

/// Weighted working graph used during coarsening. `adjacency[v]` maps
/// neighbor -> accumulated edge weight.
struct WeightedGraph {
  std::vector<int> vertex_weight;
  std::vector<std::map<int, int>> adjacency;

  int size() const { return static_cast<int>(vertex_weight.size()); }
  int TotalVertexWeight() const {
    return std::accumulate(vertex_weight.begin(), vertex_weight.end(), 0);
  }
};

WeightedGraph FromGraph(const Graph& g) {
  WeightedGraph w;
  w.vertex_weight.assign(g.VertexCount(), 1);
  w.adjacency.resize(g.VertexCount());
  for (const EdgeEntry& e : g.UndirectedEdges()) {
    w.adjacency[e.from][e.to] += 1;
    w.adjacency[e.to][e.from] += 1;
  }
  return w;
}

/// One coarsening step: heavy-edge matching in random vertex order. Fills
/// `coarse_of` (fine vertex -> coarse vertex) and returns the coarse graph.
WeightedGraph Coarsen(const WeightedGraph& fine, Rng* rng,
                      std::vector<int>* coarse_of) {
  const int n = fine.size();
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng->Uniform(i + 1)]);
  }

  coarse_of->assign(n, -1);
  int next = 0;
  for (const int v : order) {
    if ((*coarse_of)[v] != -1) continue;
    // Match v with its heaviest unmatched neighbor.
    int best = -1, best_weight = -1;
    for (const auto& [u, w] : fine.adjacency[v]) {
      if ((*coarse_of)[u] == -1 && w > best_weight) {
        best = u;
        best_weight = w;
      }
    }
    (*coarse_of)[v] = next;
    if (best != -1) (*coarse_of)[best] = next;
    ++next;
  }

  WeightedGraph coarse;
  coarse.vertex_weight.assign(next, 0);
  coarse.adjacency.resize(next);
  for (int v = 0; v < n; ++v) {
    coarse.vertex_weight[(*coarse_of)[v]] += fine.vertex_weight[v];
  }
  for (int v = 0; v < n; ++v) {
    for (const auto& [u, w] : fine.adjacency[v]) {
      const int cv = (*coarse_of)[v];
      const int cu = (*coarse_of)[u];
      if (cv != cu) coarse.adjacency[cv][cu] += w;
    }
  }
  // Each undirected weight was added twice (v->u and u->v both touch the
  // same coarse pair once per direction), which keeps the representation
  // symmetric; no correction needed.
  return coarse;
}

/// Greedy graph growing: BFS from a random vertex until ~half the total
/// vertex weight is absorbed.
std::vector<int> InitialBisect(const WeightedGraph& g, Rng* rng) {
  const int n = g.size();
  std::vector<int> side(n, 1);
  if (n == 0) return side;
  const int target = g.TotalVertexWeight() / 2;
  std::vector<int> queue = {static_cast<int>(rng->Uniform(n))};
  std::vector<bool> seen(n, false);
  seen[queue[0]] = true;
  int absorbed = 0;
  size_t head = 0;
  while (head < queue.size() && absorbed < target) {
    const int v = queue[head++];
    side[v] = 0;
    absorbed += g.vertex_weight[v];
    for (const auto& [u, w] : g.adjacency[v]) {
      (void)w;
      if (!seen[u]) {
        seen[u] = true;
        queue.push_back(u);
      }
    }
    if (head == queue.size() && absorbed < target) {
      // Disconnected: restart from any unseen vertex.
      for (int u = 0; u < n; ++u) {
        if (!seen[u]) {
          seen[u] = true;
          queue.push_back(u);
          break;
        }
      }
    }
  }
  return side;
}

/// Gain of moving v to the other side: external minus internal edge weight.
int Gain(const WeightedGraph& g, const std::vector<int>& side, int v) {
  int internal = 0, external = 0;
  for (const auto& [u, w] : g.adjacency[v]) {
    (side[u] == side[v] ? internal : external) += w;
  }
  return external - internal;
}

/// Boundary refinement: repeatedly move the best positive-gain boundary
/// vertex whose move keeps the sides balanced.
void Refine(const WeightedGraph& g, std::vector<int>* side) {
  const int total = g.TotalVertexWeight();
  const int lo = static_cast<int>(total * (0.5 - kBalanceSlack));
  const int hi = static_cast<int>(total * (0.5 + kBalanceSlack)) + 1;

  int weight0 = 0;
  for (int v = 0; v < g.size(); ++v) {
    if ((*side)[v] == 0) weight0 += g.vertex_weight[v];
  }

  for (int pass = 0; pass < kRefinePasses; ++pass) {
    bool moved = false;
    for (int v = 0; v < g.size(); ++v) {
      const int gain = Gain(g, *side, v);
      if (gain <= 0) continue;
      const int new_weight0 =
          (*side)[v] == 0 ? weight0 - g.vertex_weight[v]
                          : weight0 + g.vertex_weight[v];
      if (new_weight0 < lo || new_weight0 > hi) continue;
      (*side)[v] = 1 - (*side)[v];
      weight0 = new_weight0;
      moved = true;
    }
    if (!moved) break;
  }
}

}  // namespace

std::vector<int> MultilevelBisect(const Graph& g,
                                  const MultilevelOptions& options) {
  const int n = g.VertexCount();
  if (n < 2) return std::vector<int>(n, 0);
  Rng rng(options.seed + static_cast<uint64_t>(n) * 7919 +
          static_cast<uint64_t>(g.EdgeCount()));

  // Coarsening phase.
  std::vector<WeightedGraph> levels = {FromGraph(g)};
  std::vector<std::vector<int>> mappings;
  while (levels.back().size() > kCoarsenTo) {
    std::vector<int> coarse_of;
    WeightedGraph coarse = Coarsen(levels.back(), &rng, &coarse_of);
    if (coarse.size() >= levels.back().size()) break;  // No progress.
    mappings.push_back(std::move(coarse_of));
    levels.push_back(std::move(coarse));
  }

  // Initial partition on the coarsest graph.
  std::vector<int> side = InitialBisect(levels.back(), &rng);
  Refine(levels.back(), &side);

  // Uncoarsening with refinement.
  for (int level = static_cast<int>(mappings.size()) - 1; level >= 0;
       --level) {
    std::vector<int> fine_side(levels[level].size());
    for (int v = 0; v < levels[level].size(); ++v) {
      fine_side[v] = side[mappings[level][v]];
    }
    side = std::move(fine_side);
    Refine(levels[level], &side);
  }
  PM_CHECK_EQ(static_cast<int>(side.size()), n);
  return side;
}

}  // namespace partminer
