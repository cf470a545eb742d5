#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/inc_part_miner.h"
#include "core/part_miner.h"
#include "datagen/generator.h"
#include "datagen/update_generator.h"
#include "miner/engine.h"
#include "miner/gaston.h"
#include "miner/gspan.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace partminer {
namespace {

/// Bit-identical result check: same patterns in the SAME insertion order,
/// with equal supports and TID lists. This is strictly
/// stronger than set equality — it is what the deterministic merge of
/// task-local subtree results guarantees.
void ExpectBitIdentical(const PatternSet& serial, const PatternSet& parallel,
                        const std::string& what) {
  ASSERT_EQ(serial.size(), parallel.size()) << what;
  for (int i = 0; i < serial.size(); ++i) {
    const PatternInfo& a = serial.patterns()[i];
    const PatternInfo& b = parallel.patterns()[i];
    EXPECT_EQ(a.code.ToString(), b.code.ToString())
        << what << ": order diverges at index " << i;
    EXPECT_EQ(a.support, b.support) << what << ": " << a.code.ToString();
    EXPECT_EQ(a.tids, b.tids) << what << ": " << a.code.ToString();
  }
}

GraphDatabase DenseDatabase(uint64_t seed) {
  Rng rng(seed);
  return testutil::RandomDatabase(&rng, 20, 10, 4, 3, 2);
}

TEST(ParallelMineTest, GSpanIdenticalAcrossThreadCounts) {
  const GraphDatabase db = DenseDatabase(7);
  GSpanMiner miner;

  MinerOptions serial;
  serial.min_support = 3;
  Frontier serial_frontier;
  serial.capture_frontier = &serial_frontier;
  const PatternSet expected = miner.Mine(db, serial);
  ASSERT_GT(expected.size(), 0);

  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    MinerOptions parallel;
    parallel.min_support = 3;
    parallel.pool = &pool;
    parallel.parallel_spawn_min_embeddings = 1;  // Force subtree fan-out.
    Frontier frontier;
    parallel.capture_frontier = &frontier;
    const PatternSet got = miner.Mine(db, parallel);
    ExpectBitIdentical(expected, got,
                       "gspan threads=" + std::to_string(threads));
    EXPECT_EQ(serial_frontier == frontier, true)
        << "gspan frontier diverged at threads=" << threads;
  }
}

TEST(ParallelMineTest, GastonIdenticalAcrossThreadCounts) {
  const GraphDatabase db = DenseDatabase(11);
  GastonMiner serial_miner;

  MinerOptions serial;
  serial.min_support = 3;
  Frontier serial_frontier;
  serial.capture_frontier = &serial_frontier;
  const PatternSet expected = serial_miner.Mine(db, serial);
  ASSERT_GT(expected.size(), 0);
  const GastonStats serial_stats = serial_miner.stats();

  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    GastonMiner miner;
    MinerOptions parallel;
    parallel.min_support = 3;
    parallel.pool = &pool;
    parallel.parallel_spawn_min_embeddings = 1;
    Frontier frontier;
    parallel.capture_frontier = &frontier;
    const PatternSet got = miner.Mine(db, parallel);
    ExpectBitIdentical(expected, got,
                       "gaston threads=" + std::to_string(threads));
    EXPECT_EQ(serial_frontier == frontier, true)
        << "gaston frontier diverged at threads=" << threads;
    // Phase statistics are sums over the same subtrees — identical too.
    EXPECT_EQ(serial_stats.frequent_paths, miner.stats().frequent_paths);
    EXPECT_EQ(serial_stats.frequent_trees, miner.stats().frequent_trees);
    EXPECT_EQ(serial_stats.frequent_cyclic, miner.stats().frequent_cyclic);
    EXPECT_EQ(serial_stats.path_fast_checks, miner.stats().path_fast_checks);
    EXPECT_EQ(serial_stats.generic_min_checks,
              miner.stats().generic_min_checks);
  }
}

TEST(ParallelMineTest, PartMinerIdenticalAcrossThreadCounts) {
  const GraphDatabase db = DenseDatabase(13);

  PartMinerOptions serial;
  serial.min_support_count = 3;
  serial.partition.k = 4;
  serial.unit_mining_threads = 0;
  const PatternSet expected = MinePaperPipeline(db, serial).patterns;
  ASSERT_GT(expected.size(), 0);

  for (const int threads : {1, 2, 8}) {
    PartMinerOptions options = serial;
    options.unit_mining_threads = threads;
    ExpectBitIdentical(expected, MinePaperPipeline(db, options).patterns,
                       "partminer threads=" + std::to_string(threads));
  }
}

TEST(ParallelMineTest, IncPartMinerIdenticalAcrossThreadCounts) {
  GeneratorParams params;
  params.num_graphs = 16;
  params.avg_edges = 10;
  params.num_labels = 5;
  params.num_kernels = 8;
  params.avg_kernel_edges = 3;
  params.seed = 77;

  auto run = [&](int threads) {
    GraphDatabase db = GenerateDatabase(params);
    AssignUpdateHotspots(&db, 0.2, 78);
    PartMinerOptions options;
    options.min_support_count = 4;
    options.partition.k = 4;
    options.unit_mining_threads = threads;
    PartMiner miner(options);
    miner.Mine(db);
    UpdateOptions upd;
    upd.fraction_graphs = 0.5;
    upd.seed = 79;
    const UpdateLog log = ApplyUpdates(&db, 5, upd);
    IncPartMiner inc;
    return inc.Update(&miner, db, log);
  };

  const IncPartMinerResult expected = run(0);
  ASSERT_GT(expected.patterns.size(), 0);
  for (const int threads : {1, 2, 8}) {
    const IncPartMinerResult got = run(threads);
    const std::string what = "inc threads=" + std::to_string(threads);
    ExpectBitIdentical(expected.patterns, got.patterns, what);
    EXPECT_EQ(expected.uf, got.uf) << what << " uf";
    ExpectBitIdentical(expected.if_, got.if_, what + " if");
    ExpectBitIdentical(expected.fi, got.fi, what + " fi");
  }
}

// The frontier contract IncMergeJoin relies on for exactness (FrontierMap,
// engine::GrowFromRoots): every enumerated group that did not become a
// pattern is recorded with its exact TIDs, and no pattern is recorded.

/// Mines `db` with `miner`, a GSpanMiner or GastonMiner (pool optional,
/// fan-out forced), and returns the captured frontier; `patterns` receives
/// the result when non-null.
template <typename Miner>
FrontierMap CaptureFrontier(Miner* miner, const GraphDatabase& db,
                            int support, ThreadPool* pool,
                            PatternSet* patterns = nullptr) {
  MinerOptions options;
  options.min_support = support;
  options.pool = pool;
  options.parallel_spawn_min_embeddings = 1;
  Frontier frontier;
  options.capture_frontier = &frontier;
  PatternSet mined = miner->Mine(db, options);
  if (patterns != nullptr) *patterns = std::move(mined);
  return frontier.ToMap();
}

/// Checks that no frontier key is a pattern and that every key's TIDs
/// equal a from-scratch projection of its code over `db`.
void ExpectExactFrontier(const GraphDatabase& db, const PatternSet& patterns,
                         const FrontierMap& frontier, const std::string& what) {
  const std::vector<int> all = testutil::AllGraphs(db);
  for (const auto& [code, tids] : frontier) {
    EXPECT_FALSE(patterns.Contains(code))
        << what << ": frontier key is a pattern " << code.ToString();
    std::deque<engine::Embedding> arena;
    const TidSet recount =
        engine::TidSetOf(engine::ProjectCode(code, db, all, &arena));
    EXPECT_EQ(tids, recount) << what << ": " << code.ToString();
  }
}

/// Checks that every group a mine enumerates (each root, each rightmost
/// extension of each pattern) is either a pattern or a frontier key.
void ExpectCompleteFrontier(const GraphDatabase& db, const PatternSet& patterns,
                            const FrontierMap& frontier,
                            const std::string& what) {
  auto accounted = [&](const DfsCode& code) {
    EXPECT_TRUE(patterns.Contains(code) || frontier.count(code) > 0)
        << what << ": enumerated group missing " << code.ToString();
  };
  const std::vector<int> all = testutil::AllGraphs(db);
  for (const auto& [tuple, projected] :
       engine::CollectRootExtensions(db, all)) {
    DfsCode root;
    root.Append(tuple);
    accounted(root);
  }
  for (const PatternInfo& p : patterns.patterns()) {
    std::deque<engine::Embedding> arena;
    const engine::Projected projected =
        engine::ProjectCode(p.code, db, all, &arena);
    for (const auto& [tuple, child] : engine::CollectExtensions(
             db, p.code, projected, /*enable_order_pruning=*/true)) {
      DfsCode code = p.code;
      code.Append(tuple);
      accounted(code);
    }
  }
}

TEST(ParallelMineTest, FrontierContractSameAcrossMinersAndPools) {
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  Rng rng(2024);
  for (int seed = 0; seed < 100; ++seed) {
    const GraphDatabase db = testutil::RandomDatabase(&rng, 10, 7, 3, 3, 2);
    for (const int support : {2, 3, 4}) {
      const std::string what =
          "seed " + std::to_string(seed) + " support " + std::to_string(support);
      GSpanMiner gspan;
      const FrontierMap expected = CaptureFrontier(&gspan, db, support, nullptr);
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2,
                               &pool8}) {
        const std::string where =
            what + " pool " + std::to_string(pool ? pool->width() : 0);
        GastonMiner gaston;
        EXPECT_TRUE(expected == CaptureFrontier(&gaston, db, support, pool))
            << "gaston " << where;
        if (pool != nullptr) {
          EXPECT_TRUE(expected == CaptureFrontier(&gspan, db, support, pool))
              << "gspan " << where;
        }
      }
    }
  }
}

/// Captures into a fresh frontier with `miner`, a GSpanMiner or
/// GastonMiner (pool optional, fan-out forced).
template <typename Miner>
Frontier CaptureArena(const GraphDatabase& db, int support, ThreadPool* pool) {
  Miner miner;
  MinerOptions options;
  options.min_support = support;
  options.pool = pool;
  options.parallel_spawn_min_embeddings = 1;
  Frontier frontier;
  options.capture_frontier = &frontier;
  miner.Mine(db, options);
  return frontier;
}

TEST(ParallelMineTest, PooledCaptureSplicesTheSerialArena) {
  // A pooled capture splices its task forks in visit order, so it holds the
  // serial run's entries and exactly as many nodes.
  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  Rng rng(5150);
  size_t nodes = 0;
  for (int seed = 0; seed < 30; ++seed) {
    const GraphDatabase db = testutil::RandomDatabase(&rng, 12, 8, 3, 3, 2);
    for (const int support : {2, 4}) {
      const Frontier gspan = CaptureArena<GSpanMiner>(db, support, nullptr);
      const Frontier gaston = CaptureArena<GastonMiner>(db, support, nullptr);
      const FrontierMap serial = gspan.ToMap();
      EXPECT_EQ(gaston.ToMap(), serial);
      EXPECT_EQ(gaston.size(), gspan.size());
      EXPECT_EQ(gaston.node_count(), gspan.node_count());
      nodes += gspan.node_count();
      for (ThreadPool* pool : {&pool1, &pool2, &pool8}) {
        const std::string what = "seed " + std::to_string(seed) +
                                 " support " + std::to_string(support) +
                                 " pool " + std::to_string(pool->width());
        for (const Frontier& pooled :
             {CaptureArena<GSpanMiner>(db, support, pool),
              CaptureArena<GastonMiner>(db, support, pool)}) {
          EXPECT_EQ(pooled.ToMap(), serial) << what;
          EXPECT_EQ(pooled.size(), gspan.size()) << what;
          EXPECT_EQ(pooled.node_count(), gspan.node_count()) << what;
        }
      }
    }
  }
  EXPECT_GT(nodes, 0u);
}

TEST(ParallelMineTest, FrontierContractKeysAreExactCompleteNonPatterns) {
  Rng rng(4048);
  size_t keys = 0;
  for (int seed = 0; seed < 40; ++seed) {
    const GraphDatabase db = testutil::RandomDatabase(&rng, 10, 7, 3, 3, 2);
    for (const int support : {2, 3, 4}) {
      GSpanMiner gspan;
      PatternSet patterns;
      const FrontierMap frontier =
          CaptureFrontier(&gspan, db, support, nullptr, &patterns);
      const std::string what =
          "seed " + std::to_string(seed) + " support " + std::to_string(support);
      ExpectExactFrontier(db, patterns, frontier, what);
      ExpectCompleteFrontier(db, patterns, frontier, what);
      keys += frontier.size();
    }
  }
  EXPECT_GT(keys, 0u);
}

TEST(ParallelMineTest, FrontierContractHoldsAfterIncrementalGrow) {
  // Overwriting a few graphs with copies of graph 0 makes graph 0's
  // subgraphs newly frequent, which the delta sweep completes through the
  // growth loop's subtree grow (the only place it increments spanning_found).
  Rng rng(6072);
  int grown_rounds = 0;
  int grown_keys = 0;
  for (int seed = 0; seed < 30; ++seed) {
    GraphDatabase db = testutil::RandomDatabase(&rng, 14, 7, 3, 3, 2);
    PartMinerOptions part_options;
    part_options.min_support_count = 4;
    PartMiner state(part_options);
    const PatternSet cached = state.Mine(db).patterns;

    UpdateLog log;
    log.updated_graphs = {3, 7};
    for (const int gi : log.updated_graphs) db.mutable_graph(gi) = db.graph(0);
    const IncPartMinerResult update = IncPartMiner().Update(&state, db, log);
    const PatternSet& result = update.patterns;
    const std::string what = "seed " + std::to_string(seed);
    EXPECT_GT(update.merge_stats.delta_recounts, 0) << what;
    if (update.merge_stats.spanning_found > 0) ++grown_rounds;

    Frontier& frontier = state.mutable_root_frontier().map;
    frontier.Compact();
    const FrontierMap compacted = frontier.ToMap();
    ExpectExactFrontier(db, result, compacted, what);

    // Keys under a newly frequent pattern were written by the grow; there
    // must be some.
    for (const auto& [code, tids] : compacted) {
      for (const PatternInfo& p : result.patterns()) {
        if (cached.Contains(p.code) || code.size() <= p.code.size()) continue;
        bool extends = true;
        for (size_t i = 0; i < p.code.size() && extends; ++i) {
          extends = code[i] == p.code[i];
        }
        if (extends) {
          ++grown_keys;
          break;
        }
      }
    }
  }
  EXPECT_GT(grown_rounds, 0);
  EXPECT_GT(grown_keys, 0);
}

/// Recount of `code` over every graph of `db`.
TidSet Recount(const GraphDatabase& db, const DfsCode& code) {
  const std::vector<int> all = testutil::AllGraphs(db);
  std::deque<engine::Embedding> arena;
  return engine::TidSetOf(engine::ProjectCode(code, db, all, &arena));
}

/// The frontier's current value for `code`: absent and dead read as empty.
TidSet LookupOrEmpty(const Frontier& frontier, const DfsCode& code) {
  TidSet tids;
  frontier.Lookup(code, &tids);
  return tids;
}

/// The lazy frontier invariant the delta sweep relies on: every group a
/// mine of `db` enumerates (each root, each rightmost extension of each
/// pattern) that is not a pattern reads its exact TIDs, and every live key
/// reads its exact TIDs.
void ExpectLazyFrontierExact(const GraphDatabase& db,
                             const PatternSet& patterns,
                             const Frontier& frontier,
                             const std::string& what) {
  auto reachable = [&](const DfsCode& code) {
    if (patterns.Contains(code)) return;
    EXPECT_EQ(LookupOrEmpty(frontier, code), Recount(db, code))
        << what << ": reachable " << code.ToString();
  };
  const std::vector<int> all = testutil::AllGraphs(db);
  for (const auto& [tuple, projected] :
       engine::CollectRootExtensions(db, all)) {
    DfsCode root;
    root.Append(tuple);
    reachable(root);
  }
  for (const PatternInfo& p : patterns.patterns()) {
    std::deque<engine::Embedding> arena;
    const engine::Projected projected =
        engine::ProjectCode(p.code, db, all, &arena);
    for (const auto& [tuple, child] : engine::CollectExtensions(
             db, p.code, projected, /*enable_order_pruning=*/true)) {
      DfsCode code = p.code;
      code.Append(tuple);
      reachable(code);
    }
  }
  frontier.ForEachKey([&](const DfsCode& code) {
    TidSet tids;
    if (frontier.Lookup(code, &tids)) {
      EXPECT_FALSE(patterns.Contains(code))
          << what << ": live key is a pattern " << code.ToString();
      EXPECT_EQ(tids, Recount(db, code)) << what << ": " << code.ToString();
    }
  });
}

bool StrictlyExtends(const DfsCode& code, const DfsCode& prefix) {
  if (code.size() <= prefix.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (!(code[i] == prefix[i])) return false;
  }
  return true;
}

TEST(ParallelMineTest, LazyFrontierExactAcrossChainedDeltaRounds) {
  // Ten chained delta rounds per database with no compaction in between:
  // every update lands in the first half of the graphs, so the graphs
  // pending never exceed half the database. Each round relabels vertices
  // in two graphs and attaches a new vertex in a third; the next round
  // reverts the relabels. A relabel that removes a pattern's occurrence
  // while another updated graph still reaches it cuts its subtree (FI); the
  // revert makes it frequent again, and the subtree grow re-derives the cut
  // prefix's frontier.
  obs::Counter* compactions = obs::MetricRegistry::Global().GetCounter(
      "partminer.update.frontier_compactions");
  const int64_t compactions_before = compactions->value();
  Rng rng(8192);
  int cut_rounds = 0;
  int regrown_cut_prefixes = 0;
  int dead_keys_seen = 0;
  for (int seed = 0; seed < 20; ++seed) {
    GraphDatabase db = testutil::RandomDatabase(&rng, 16, 7, 3, 3, 2);
    const int support = 3;
    PartMinerOptions part_options;
    part_options.min_support_count = support;
    PartMiner state(part_options);
    state.Mine(db);
    const NodeFrontier& frontier = state.root_frontier();
    MinerOptions options;
    options.min_support = support;
    GSpanMiner gspan;
    IncPartMiner inc;

    struct Relabel {
      int graph;
      VertexId vertex;
      Label label;
    };
    std::vector<Relabel> undo;
    for (int round = 0; round < 10; ++round) {
      std::vector<int> updated;
      if (!undo.empty()) {
        for (const Relabel& r : undo) {
          db.mutable_graph(r.graph).set_vertex_label(r.vertex, r.label);
          updated.push_back(r.graph);
        }
        undo.clear();
      } else {
        for (int i = 0; i < 2; ++i) {
          const int gi = static_cast<int>(rng.Uniform(db.size() / 2));
          Graph& g = db.mutable_graph(gi);
          const VertexId v = static_cast<VertexId>(rng.Uniform(g.VertexCount()));
          undo.push_back(Relabel{gi, v, g.vertex_label(v)});
          g.set_vertex_label(v, static_cast<Label>(rng.Uniform(3)));
          updated.push_back(gi);
        }
      }
      const int gi = static_cast<int>(rng.Uniform(db.size() / 2));
      Graph& g = db.mutable_graph(gi);
      const VertexId anchor =
          static_cast<VertexId>(rng.Uniform(g.VertexCount()));
      const VertexId added = g.AddVertex(static_cast<Label>(rng.Uniform(3)));
      g.AddEdge(anchor, added, static_cast<Label>(rng.Uniform(2)));
      updated.push_back(gi);

      const Frontier::CutMap cut_before = frontier.map.Cuts();
      UpdateLog log;
      log.updated_graphs = updated;
      const IncPartMinerResult update = inc.Update(&state, db, log);
      const PatternSet& cached = update.patterns;
      const std::string what =
          "seed " + std::to_string(seed) + " round " + std::to_string(round);
      EXPECT_GT(update.merge_stats.delta_recounts, 0) << what;
      const PatternSet expected = gspan.Mine(db, options);
      ASSERT_EQ(expected.SortedCodeStrings(), cached.SortedCodeStrings())
          << what;

      ExpectLazyFrontierExact(db, cached, frontier.map, what);

      // Keys under a prefix cut this round read as absent.
      std::vector<DfsCode> cut_now;
      for (const auto& [code, epoch] : frontier.map.Cuts()) {
        if (epoch == frontier.map.epoch()) cut_now.push_back(code);
      }
      if (!cut_now.empty()) ++cut_rounds;
      frontier.map.ForEachKey([&](const DfsCode& key) {
        for (const DfsCode& cut : cut_now) {
          if (!StrictlyExtends(key, cut)) continue;
          TidSet tids;
          EXPECT_FALSE(frontier.map.Lookup(key, &tids))
              << what << ": " << key.ToString() << " under cut "
              << cut.ToString();
          ++dead_keys_seen;
        }
      });
      for (const PatternInfo& p : update.if_.patterns()) {
        if (cut_before.count(p.code) > 0) ++regrown_cut_prefixes;
      }

      // Compaction changes no lookup and leaves nothing dead.
      Frontier compacted = frontier.map;
      compacted.Compact();
      EXPECT_EQ(compacted.CountDead(), 0u) << what;
      EXPECT_LE(compacted.size(), frontier.map.size()) << what;
      frontier.map.ForEachKey([&](const DfsCode& key) {
        EXPECT_EQ(LookupOrEmpty(frontier.map, key),
                  LookupOrEmpty(compacted, key))
            << what << ": " << key.ToString();
      });
      EXPECT_TRUE(frontier.map == compacted) << what;
    }
  }
  EXPECT_EQ(compactions->value(), compactions_before);
  EXPECT_GT(cut_rounds, 0);
  EXPECT_GT(regrown_cut_prefixes, 0);
  EXPECT_GT(dead_keys_seen, 0);
}

TEST(ParallelMineTest, CopiedStateAnswersEveryLookupAsTheOriginal) {
  // A copy carries the arena and its index: after delta rounds that leave
  // pending strips and cuts, every stored key reads the same from both,
  // and both answer the next round alike.
  Rng rng(9001);
  int keys = 0;
  int cut_states = 0;
  for (int seed = 0; seed < 15; ++seed) {
    GraphDatabase db = testutil::RandomDatabase(&rng, 16, 7, 3, 3, 2);
    PartMinerOptions part_options;
    part_options.min_support_count = 3;
    PartMiner state(part_options);
    state.Mine(db);
    IncPartMiner inc;
    auto relabel = [&](int round) {
      UpdateOptions upd;
      upd.fraction_graphs = 0.2;
      upd.kinds = {UpdateKind::kRelabel};
      upd.seed = 100 * static_cast<uint64_t>(seed) + round;
      return ApplyUpdates(&db, 3, upd);
    };
    for (int round = 0; round < 3; ++round) {
      inc.ApplyRound(&state, db, relabel(round));
    }

    PartMiner copy = state;
    const Frontier& original = state.root_frontier().map;
    const Frontier& copied = copy.root_frontier().map;
    const std::string what = "seed " + std::to_string(seed);
    ASSERT_EQ(copied.size(), original.size()) << what;
    ASSERT_EQ(copied.node_count(), original.node_count()) << what;
    if (!original.Cuts().empty()) ++cut_states;
    original.ForEachKey([&](const DfsCode& key) {
      TidSet from_original;
      TidSet from_copy;
      EXPECT_EQ(original.Lookup(key, &from_original),
                copied.Lookup(key, &from_copy))
          << what << ": " << key.ToString();
      EXPECT_EQ(from_original, from_copy) << what << ": " << key.ToString();
      ++keys;
    });
    ExpectLazyFrontierExact(db, copy.patterns(), copied, what);

    const UpdateLog log = relabel(3);
    inc.ApplyRound(&state, db, log);
    inc.ApplyRound(&copy, db, log);
    ExpectBitIdentical(state.patterns(), copy.patterns(), what);
    EXPECT_TRUE(original.ToMap() == copied.ToMap()) << what;
  }
  EXPECT_GT(keys, 0);
  EXPECT_GT(cut_states, 0);
}

/// The root groups of the graphs `listed` in `db`, by a direct scan: a
/// tuple's embeddings in database order, the tuples in CompareDfsEdge order.
std::vector<engine::ExtensionMap::Entry> ReferenceRootScan(
    const GraphDatabase& db, const std::vector<int>& listed) {
  std::vector<engine::ExtensionMap::Entry> groups;
  for (const int i : listed) {
    const Graph& g = db.graph(i);
    for (VertexId u = 0; u < g.VertexCount(); ++u) {
      for (const EdgeEntry& e : g.adjacency(u)) {
        if (g.vertex_label(u) > g.vertex_label(e.to)) continue;
        const DfsEdge tuple{0, 1, g.vertex_label(u), e.label,
                            g.vertex_label(e.to)};
        auto it = std::find_if(groups.begin(), groups.end(),
                               [&](const engine::ExtensionMap::Entry& group) {
                                 return group.first == tuple;
                               });
        if (it == groups.end()) it = groups.insert(groups.end(), {tuple, {}});
        it->second.push_back(engine::Embedding{i, &e, nullptr});
      }
    }
  }
  std::stable_sort(groups.begin(), groups.end(),
                   [](const auto& a, const auto& b) {
                     return CompareDfsEdge(a.first, b.first) < 0;
                   });
  return groups;
}

/// The same groups, in the same order, with the same embeddings in the same
/// order.
void ExpectSameRootGroups(
    const std::vector<engine::ExtensionMap::Entry>& expected,
    const engine::ExtensionMap& got, const std::string& what) {
  ASSERT_EQ(got.size(), expected.size()) << what;
  size_t g = 0;
  for (const auto& [tuple, projected] : got) {
    const auto& [want_tuple, want] = expected[g++];
    EXPECT_EQ(tuple, want_tuple) << what << ": group " << g - 1;
    ASSERT_EQ(projected.size(), want.size()) << what << ": group " << g - 1;
    for (size_t e = 0; e < want.size(); ++e) {
      EXPECT_EQ(projected[e].graph_index, want[e].graph_index) << what;
      EXPECT_EQ(projected[e].edge, want[e].edge) << what;
      EXPECT_EQ(projected[e].prev, nullptr) << what;
    }
  }
}

TEST(ParallelMineTest, PooledRootScanEqualsTheSerialScan) {
  // The root scan counts graph ranges on the pool, merges their sorted
  // counts and fills each range's share: at every width its groups, their
  // order and their embeddings are the serial scan's, which is a direct
  // scan's.
  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  Rng rng(8128);
  std::vector<GraphDatabase> databases;
  for (int seed = 0; seed < 12; ++seed) {
    databases.push_back(testutil::RandomDatabase(&rng, 1 + seed * 3, 8, 4,
                                                 1 + seed % 3, 2));
  }
  // Equal labels at both ends: every such edge is a root embedding in both
  // orientations, and one graph is heavier than the others put together.
  GraphDatabase same_labels;
  Graph heavy;
  for (int v = 0; v < 40; ++v) heavy.AddVertex(7);
  for (int v = 1; v < 40; ++v) heavy.AddEdge(v - 1, v, v % 2);
  same_labels.Add(heavy);
  Graph light;
  light.AddVertex(7);
  light.AddVertex(7);
  light.AddVertex(3);
  light.AddEdge(0, 1, 0);
  light.AddEdge(1, 2, 1);
  same_labels.Add(light);
  same_labels.Add(light);
  databases.push_back(std::move(same_labels));

  int groups = 0;
  for (size_t d = 0; d < databases.size(); ++d) {
    const GraphDatabase& db = databases[d];
    std::vector<int> subset;
    for (int i = 0; i < db.size(); ++i) {
      if (rng.Bernoulli(0.4)) subset.push_back(i);
    }
    const std::vector<std::vector<int>> lists = {
        testutil::AllGraphs(db), subset, {db.size() - 1}, {}};
    for (size_t l = 0; l < lists.size(); ++l) {
      const std::string what =
          "database " + std::to_string(d) + " list " + std::to_string(l);
      const auto expected = ReferenceRootScan(db, lists[l]);
      groups += static_cast<int>(expected.size());
      ExpectSameRootGroups(expected,
                           engine::CollectRootExtensions(db, lists[l]),
                           what + " serial");
      for (ThreadPool* pool : {&pool1, &pool2, &pool8}) {
        ExpectSameRootGroups(
            expected, engine::CollectRootExtensions(db, lists[l], pool),
            what + " pool " + std::to_string(pool->width()));
      }
    }
  }
  EXPECT_GT(groups, 0);
}

TEST(ParallelMineTest, PooledIndexFindsEveryNodeAsSerial) {
  // A pooled capture fills its (parent, tuple) index by concurrent inserts,
  // so its slots may differ from the serial build's; every node must still
  // be found under the serial id, and every key read the serial TIDs.
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  Rng rng(6174);
  size_t walked = 0;
  for (int seed = 0; seed < 20; ++seed) {
    const GraphDatabase db = testutil::RandomDatabase(&rng, 14, 8, 3, 3, 2);
    auto capture = [&](ThreadPool* pool, Frontier* frontier) {
      MinerOptions options;
      options.min_support = 3;
      options.pool = pool;
      options.parallel_spawn_min_embeddings = 1;
      options.capture_frontier = frontier;
      return GSpanMiner().Mine(db, options);
    };
    Frontier serial;
    const PatternSet patterns = capture(nullptr, &serial);
    std::vector<DfsCode> codes;
    serial.ForEachKey([&codes](const DfsCode& key) { codes.push_back(key); });
    for (const PatternInfo& p : patterns.patterns()) codes.push_back(p.code);
    const size_t nodes = serial.node_count();

    for (ThreadPool* pool : {&pool2, &pool8}) {
      const std::string what = "seed " + std::to_string(seed) + " pool " +
                               std::to_string(pool->width());
      Frontier pooled;
      capture(pool, &pooled);
      ASSERT_EQ(pooled.node_count(), serial.node_count()) << what;
      // Node() finds an indexed node; it would append a missing one.
      for (const DfsCode& code : codes) {
        Frontier::NodeId a = Frontier::kRoot;
        Frontier::NodeId b = Frontier::kRoot;
        for (size_t i = 0; i < code.size(); ++i) {
          a = serial.Node(a, code[i]);
          b = pooled.Node(b, code[i]);
          ASSERT_EQ(a, b) << what << ": " << code.ToString();
          ++walked;
        }
        TidSet from_serial;
        TidSet from_pooled;
        EXPECT_EQ(serial.Lookup(code, &from_serial),
                  pooled.Lookup(code, &from_pooled))
            << what << ": " << code.ToString();
        EXPECT_EQ(from_serial, from_pooled) << what << ": " << code.ToString();
      }
      EXPECT_EQ(pooled.node_count(), nodes) << what;
    }
    EXPECT_EQ(serial.node_count(), nodes);
  }
  EXPECT_GT(walked, 0u);
}

/// Every stored key of `frontier` in node order. Equal sequences with
/// equal node counts put every entry under the same node id.
std::vector<std::string> KeysInNodeOrder(const Frontier& frontier) {
  std::vector<std::string> keys;
  frontier.ForEachKey(
      [&keys](const DfsCode& code) { keys.push_back(code.ToString()); });
  return keys;
}

/// Same patterns in the same order, and the same frontier: compacted view,
/// entry and node counts, node order of the entries.
void ExpectSameState(const PartMiner& serial, const PartMiner& pooled,
                     const std::string& what) {
  ExpectBitIdentical(serial.patterns(), pooled.patterns(), what);
  const Frontier& a = serial.root_frontier().map;
  const Frontier& b = pooled.root_frontier().map;
  EXPECT_EQ(a.ToMap(), b.ToMap()) << what;
  EXPECT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(a.node_count(), b.node_count()) << what;
  EXPECT_EQ(KeysInNodeOrder(a), KeysInNodeOrder(b)) << what;
}

TEST(ParallelMineTest, PooledMineMatchesSerialMine) {
  // PartMiner::Mine grows its captured sweep on unit_mining_threads
  // workers; the state must be the serial one, node ids included. Then six
  // chained rounds with relabels, through a compaction, keep every width
  // identical.
  obs::Counter* compactions = obs::MetricRegistry::Global().GetCounter(
      "partminer.update.frontier_compactions");
  obs::Counter* tasks =
      obs::MetricRegistry::Global().GetCounter("pool.tasks_executed");
  const int64_t compactions_before = compactions->value();
  const int64_t tasks_before = tasks->value();
  const std::vector<int> widths = {0, 1, 2, 8};
  // Graphs updated per round, of 20: two small rounds, a half-database
  // round that pushes the pending graphs past half and compacts, and three
  // small rounds on the compacted frontier.
  const std::vector<double> fractions = {0.1, 0.1, 0.5, 0.1, 0.1, 0.05};
  Rng rng(31337);
  for (int seed = 0; seed < 8; ++seed) {
    GraphDatabase db = testutil::RandomDatabase(&rng, 20, 9, 4, 3, 2);
    std::vector<PartMiner> states;
    for (const int threads : widths) {
      PartMinerOptions options;
      options.min_support_count = 3;
      options.unit_mining_threads = threads;
      states.emplace_back(options);
      states.back().Mine(db);
    }
    const std::string what = "seed " + std::to_string(seed);
    ASSERT_GT(states[0].patterns().size(), 0) << what;
    for (size_t w = 1; w < widths.size(); ++w) {
      ExpectSameState(states[0], states[w],
                      what + " threads " + std::to_string(widths[w]));
    }

    IncPartMiner inc;
    GSpanMiner gspan;
    MinerOptions oracle;
    oracle.min_support = 3;
    for (size_t round = 0; round < fractions.size(); ++round) {
      UpdateOptions upd;
      upd.fraction_graphs = fractions[round];
      upd.seed = 1000 * static_cast<uint64_t>(seed) + round;
      const UpdateLog log = ApplyUpdates(&db, 3, upd);
      for (PartMiner& state : states) inc.ApplyRound(&state, db, log);
      const std::string at = what + " round " + std::to_string(round);
      ASSERT_EQ(gspan.Mine(db, oracle).SortedCodeStrings(),
                states[0].patterns().SortedCodeStrings())
          << at;
      for (size_t w = 1; w < widths.size(); ++w) {
        ExpectSameState(states[0], states[w],
                        at + " threads " + std::to_string(widths[w]));
      }
    }
  }
  EXPECT_GT(compactions->value(), compactions_before);
  EXPECT_GT(tasks->value(), tasks_before);
}

TEST(ParallelMineTest, PooledMineSplitsManyInfrequentRootsInOrder) {
  // A pooled root puts its infrequent children in chunk forks of 512 and
  // places them at the ids the serial run gives: with 60 vertex labels more
  // than 1,024 root tuples are infrequent, so several chunks must land in
  // tuple order ahead of the frequent children's forks.
  Rng rng(4099);
  const GraphDatabase db = testutil::RandomDatabase(&rng, 120, 30, 10, 60, 3);
  std::vector<PartMiner> states;
  for (const int threads : {0, 2, 8}) {
    PartMinerOptions options;
    options.min_support_count = 2;
    options.unit_mining_threads = threads;
    states.emplace_back(options);
    states.back().Mine(db);
  }
  size_t infrequent_roots = 0;
  states[0].root_frontier().map.ForEachKey(
      [&infrequent_roots](const DfsCode& key) {
        if (key.size() == 1) ++infrequent_roots;
      });
  ASSERT_GT(infrequent_roots, 2u * 512);
  ASSERT_GT(states[0].patterns().size(), 0);
  ExpectSameState(states[0], states[1], "threads 2");
  ExpectSameState(states[0], states[2], "threads 8");
}

}  // namespace
}  // namespace partminer
