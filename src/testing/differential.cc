#include "testing/differential.h"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "adi/adi_miner.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/inc_part_miner.h"
#include "core/part_miner.h"
#include "datagen/update_generator.h"
#include "graph/graph_io.h"
#include "miner/brute_force.h"
#include "miner/engine.h"
#include "miner/gaston.h"
#include "miner/gspan.h"

namespace partminer {
namespace testing {

std::string DiffAgainstOracle(const PatternSet& expected,
                              const PatternSet& actual,
                              const std::string& name) {
  std::ostringstream out;
  int issues = 0;
  auto note = [&](const std::string& what) {
    if (issues < 5) out << "  " << what << "\n";
    ++issues;
  };

  for (const PatternInfo& p : expected.patterns()) {
    const PatternInfo* q = actual.Find(p.code);
    if (q == nullptr) {
      note("missing pattern " + p.code.ToString() + " (support " +
           std::to_string(p.support) + ")");
      continue;
    }
    if (q->support != p.support) {
      note("support mismatch for " + p.code.ToString() + ": expected " +
           std::to_string(p.support) + ", " + name + " " +
           std::to_string(q->support));
    }
    if (!(p.tids == q->tids)) {
      note("tid-set mismatch for " + p.code.ToString());
    }
  }
  for (const PatternInfo& q : actual.patterns()) {
    if (expected.Find(q.code) == nullptr) {
      note("extra pattern " + q.code.ToString() + " (support " +
           std::to_string(q.support) + ")");
    }
  }
  if (issues == 0) return "";
  std::ostringstream head;
  head << name << " disagrees with the expected result (" << issues
       << " differences; expected " << expected.size() << " patterns, "
       << name << " " << actual.size() << "):\n"
       << out.str();
  return head.str();
}

namespace {

/// Checks an incremental round's change report against the sets before and
/// after it: IF is exactly `after` minus `before`, FI exactly `before` minus
/// `after`, and `changed` exactly the codes of both whose support differs.
/// Returns "" when it holds.
std::string DiffChangeReport(const PatternSet& before, const PatternSet& after,
                             const IncPartMinerResult& round) {
  std::vector<std::string> want_if, want_fi, want_changed;
  for (const PatternInfo& p : after.patterns()) {
    const PatternInfo* old = before.Find(p.code);
    if (old == nullptr) {
      want_if.push_back(p.code.ToString());
    } else if (old->support != p.support) {
      want_changed.push_back(p.code.ToString());
    }
  }
  for (const PatternInfo& p : before.patterns()) {
    if (!after.Contains(p.code)) want_fi.push_back(p.code.ToString());
  }
  std::vector<std::string> got_changed;
  for (const DfsCode& code : round.changed) {
    got_changed.push_back(code.ToString());
  }
  std::sort(want_if.begin(), want_if.end());
  std::sort(want_fi.begin(), want_fi.end());
  std::sort(want_changed.begin(), want_changed.end());
  std::sort(got_changed.begin(), got_changed.end());
  const auto differs = [](const char* name, size_t got, size_t want) {
    return std::string("change report: ") + name + " differs (" +
           std::to_string(got) + " codes, expected " + std::to_string(want) +
           ")";
  };
  const std::vector<std::string> got_if = round.if_.SortedCodeStrings();
  if (got_if != want_if) return differs("IF", got_if.size(), want_if.size());
  const std::vector<std::string> got_fi = round.fi.SortedCodeStrings();
  if (got_fi != want_fi) return differs("FI", got_fi.size(), want_fi.size());
  if (got_changed != want_changed) {
    return differs("changed", got_changed.size(), want_changed.size());
  }
  return "";
}

/// Chained incremental rounds per case: enough for state carried across
/// rounds (the root set and frontier) to be read back by later rounds.
constexpr int kIncrementalRounds = 8;
/// Rounds from this one on update at most a tenth of the graphs (at least
/// one), so the frontier's lazy strip and cut state carries across several
/// rounds before a compaction.
constexpr int kFirstSmallRound = 4;

/// Seeded update round shared by RunAllChecks and corpus replay: the update
/// stream is a pure function of the case seed, the round and the attempt,
/// so minimized repros keep exercising the same incremental path. Odd
/// rounds relabel only — the one update kind that can remove a pattern's
/// occurrences.
UpdateOptions MakeUpdateOptions(const FuzzCaseParams& params, int round,
                                int attempt) {
  UpdateOptions upd;
  Rng rng(params.seed * 0x9e3779b97f4a7c15ull + 3 + round);
  upd.fraction_graphs = 0.2 + 0.15 * static_cast<double>(rng.Uniform(4));
  upd.updates_per_graph = 1 + static_cast<int>(rng.Uniform(3));
  if (round % 2 == 1) upd.kinds = {UpdateKind::kRelabel};
  upd.seed = params.seed + 101 + round;
  if (round >= kFirstSmallRound) {
    upd.fraction_graphs = 0.1;
    upd.seed += 1000 * static_cast<uint64_t>(attempt);
  }
  return upd;
}

/// Applies round `round`'s updates to `db`. A small round redraws (up to a
/// fixed number of attempts) until it touches between one graph and a
/// tenth of them; if none does, the round changes nothing.
UpdateLog ApplyRoundUpdates(GraphDatabase* db, const FuzzCaseParams& params,
                            int round) {
  if (round < kFirstSmallRound) {
    return ApplyUpdates(db, params.gen.num_labels,
                        MakeUpdateOptions(params, round, 0));
  }
  const size_t cap = static_cast<size_t>(std::max(1, db->size() / 10));
  for (int attempt = 0; attempt < 16; ++attempt) {
    GraphDatabase trial = *db;
    UpdateLog log = ApplyUpdates(&trial, params.gen.num_labels,
                                 MakeUpdateOptions(params, round, attempt));
    if (!log.updated_graphs.empty() && log.updated_graphs.size() <= cap) {
      *db = std::move(trial);
      return log;
    }
  }
  return UpdateLog();
}

/// The frontier contract after an incremental round, checked on the
/// compacted frontier: no key is a pattern and every key's TIDs equal a
/// from-scratch projection over `db`. Compaction must change no lookup of
/// the lazily maintained `frontier`. Returns "" when it holds.
std::string CheckCompactedFrontier(const GraphDatabase& db,
                                   const PatternSet& patterns,
                                   const Frontier& frontier) {
  Frontier compacted = frontier;
  compacted.Compact();
  std::vector<int> all(db.size());
  for (int i = 0; i < db.size(); ++i) all[i] = i;
  std::string problem;
  compacted.ForEachLive([&](const DfsCode& code, const TidSet& tids) {
    if (!problem.empty()) return;
    std::deque<engine::Embedding> arena;
    if (patterns.Contains(code)) {
      problem = "frontier key is a pattern " + code.ToString();
    } else if (tids != engine::TidSetOf(
                           engine::ProjectCode(code, db, all, &arena))) {
      problem = "frontier TIDs of " + code.ToString() +
                " differ from a recount";
    }
  });
  frontier.ForEachKey([&](const DfsCode& code) {
    if (!problem.empty()) return;
    TidSet lazy;
    TidSet kept;
    frontier.Lookup(code, &lazy);
    compacted.Lookup(code, &kept);
    if (lazy != kept) {
      problem = "compaction changed the lookup of " + code.ToString();
    }
  });
  return problem;
}

}  // namespace

FuzzCaseParams MakeFuzzCase(uint64_t seed, bool smoke) {
  FuzzCaseParams params;
  params.seed = seed;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);

  GeneratorParams& gen = params.gen;
  gen.num_graphs = smoke ? 6 + static_cast<int>(rng.Uniform(9))
                         : 8 + static_cast<int>(rng.Uniform(17));
  gen.num_labels = 2 + static_cast<int>(rng.Uniform(4));
  gen.avg_edges = 4 + static_cast<int>(rng.Uniform(smoke ? 5 : 9));
  gen.avg_kernel_edges = 2 + static_cast<int>(rng.Uniform(3));
  gen.num_kernels = 2 + static_cast<int>(rng.Uniform(5));
  gen.seed = seed * 6364136223846793005ull + 1442695040888963407ull;

  // Support low enough that patterns survive, high enough that not every
  // subgraph is frequent; max_edges bounds the brute-force oracle.
  const int hi = std::max(2, gen.num_graphs / 3);
  params.min_support = 2 + static_cast<int>(rng.Uniform(hi - 1));
  params.max_edges = 3 + static_cast<int>(rng.Uniform(2));
  params.k = 2 + static_cast<int>(rng.Uniform(3));
  return params;
}

DifferentialResult RunAllChecks(const GraphDatabase& db,
                                const FuzzCaseParams& params) {
  DifferentialResult result;
  MinerOptions options;
  options.min_support = params.min_support;
  options.max_edges = params.max_edges;

  BruteForceMiner oracle_miner;
  const PatternSet oracle = oracle_miner.Mine(db, options);
  ++result.configurations;

  auto check = [&](const PatternSet& actual, const std::string& name) {
    ++result.configurations;
    if (!result.ok()) return;
    result.divergence = DiffAgainstOracle(oracle, actual, name);
  };

  {
    GSpanMiner gspan;
    check(gspan.Mine(db, options), "gspan");
    GastonMiner gaston;
    check(gaston.Mine(db, options), "gaston");
  }

  // Parallel gSpan and Gaston: the work-stealing traversal must be
  // bit-identical to the serial one. The spawn threshold is lowered so the
  // tiny fuzz databases actually fan out.
  for (const int threads : {2, 8}) {
    if (!result.ok()) break;
    ThreadPool pool(threads);
    MinerOptions parallel = options;
    parallel.pool = &pool;
    parallel.parallel_spawn_min_embeddings = 1;
    GSpanMiner gspan;
    check(gspan.Mine(db, parallel),
          "gspan(pool=" + std::to_string(threads) + ")");
    GastonMiner gaston;
    check(gaston.Mine(db, parallel),
          "gaston(pool=" + std::to_string(threads) + ")");
  }

  // The paper pipeline across unit-mining thread counts; Theorems 1-3 say
  // partition-mine-merge is lossless.
  for (const int threads : {0, 2, 8}) {
    if (!result.ok()) break;
    PartMinerOptions popt;
    popt.min_support_count = params.min_support;
    popt.max_edges = params.max_edges;
    popt.partition.k = params.k;
    popt.partition.seed = params.seed + 7;
    popt.unit_mining_threads = threads;
    check(MinePaperPipeline(db, popt).patterns,
          "partminer(threads=" + std::to_string(threads) + ")");
  }

  // Disk-resident AdiMine on a deliberately tiny pool (constant eviction)
  // must match the in-memory oracle bit for bit.
  if (result.ok()) {
    AdiMineOptions adi_options;
    adi_options.pool.frames = 2;
    AdiMine adi(adi_options);
    const Status built = adi.BuildIndex(db);
    if (!built.ok()) {
      result.divergence = "adi BuildIndex failed: " + built.ToString();
    } else {
      PatternSet patterns;
      const Status mined = adi.Mine(options, &patterns);
      if (!mined.ok()) {
        result.divergence = "adi Mine failed: " + mined.ToString();
        ++result.configurations;
      } else {
        check(patterns, "adi(frames=2)");
      }
    }
  }

  // Chained incremental rounds from one Mine: the base mine (the product
  // path) is diffed against the oracle, then every round applies seeded
  // updates, updates incrementally, and is compared against a from-scratch
  // re-mining of the updated database and the root frontier against its
  // contract. Every round takes the frontier-backed delta path; the large
  // early rounds (20-65% of the graphs) push the graphs pending since the
  // last compaction past half the database, so rounds compact, and the
  // small rounds at the end carry lazy frontier state between them. The
  // second half of the rounds runs on a copy of the state, as a caller
  // that copies a mined state before updating it does, so every later
  // round reads the copied frontier arena and its index. Odd seeds mine on
  // a 2-wide pool, so their rounds read a pooled capture.
  if (result.ok()) {
    GraphDatabase updated = db;
    AssignUpdateHotspots(&updated, 0.3, params.seed + 11);

    PartMinerOptions popt;
    popt.min_support_count = params.min_support;
    popt.max_edges = params.max_edges;
    popt.unit_mining_threads = params.seed % 2 == 1 ? 2 : 0;
    PartMiner miner(popt);
    // Hotspots set update frequencies only, so the oracle still applies.
    result.divergence = DiffAgainstOracle(
        oracle, miner.Mine(updated).patterns,
        "partminer(threads=" + std::to_string(popt.unit_mining_threads) + ")");

    ++result.configurations;
    IncPartMiner inc;
    for (int round = 0; round < kIncrementalRounds && result.ok(); ++round) {
      if (round == kIncrementalRounds / 2) miner = PartMiner(miner);
      const UpdateLog log = ApplyRoundUpdates(&updated, params, round);
      const PatternSet before = miner.patterns();
      const IncPartMinerResult inc_result =
          inc.ApplyRound(&miner, updated, log);

      // Diffed against a fresh serial mining of the updated database (gSpan
      // is itself validated against the oracle above).
      GSpanMiner gspan;
      const PatternSet remined = gspan.Mine(updated, options);
      result.divergence =
          DiffAgainstOracle(remined, miner.patterns(), "incpartminer");
      if (result.divergence.empty()) {
        result.divergence = DiffChangeReport(before, remined, inc_result);
      }
      // Only a compaction empties the pending graphs of a round that
      // updated one.
      const Frontier& frontier = miner.root_frontier().map;
      if (!log.updated_graphs.empty() && frontier.PendingGraphs() == 0) {
        ++result.compacted_rounds;
      }
      if (result.divergence.empty()) {
        const std::string problem =
            CheckCompactedFrontier(updated, miner.patterns(), frontier);
        if (!problem.empty()) result.divergence = "root frontier: " + problem;
      }
      if (!result.divergence.empty()) {
        result.divergence = "round " + std::to_string(round) +
                            " of chained updates (" +
                            std::to_string(log.updated_graphs.size()) +
                            " graphs): " + result.divergence;
      }
    }
  }

  return result;
}

DifferentialResult RunDifferentialSeed(uint64_t seed, bool smoke) {
  const FuzzCaseParams params = MakeFuzzCase(seed, smoke);
  const GraphDatabase db = GenerateDatabase(params.gen);
  return RunAllChecks(db, params);
}

GraphDatabase MinimizeDivergence(const GraphDatabase& db,
                                 const FuzzCaseParams& params) {
  GraphDatabase current = db;
  bool shrunk = true;
  while (shrunk && current.size() > 1) {
    shrunk = false;
    for (int drop = current.size() - 1; drop >= 0; --drop) {
      GraphDatabase candidate;
      for (int i = 0; i < current.size(); ++i) {
        if (i != drop) candidate.Add(current.graph(i), candidate.size());
      }
      if (!RunAllChecks(candidate, params).ok()) {
        current = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  return current;
}

Status WriteReproFile(const std::string& path, const GraphDatabase& db,
                      const FuzzCaseParams& params,
                      const std::string& divergence) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << "# partminer-fuzz repro seed=" << params.seed
      << " support=" << params.min_support
      << " max_edges=" << params.max_edges << " k=" << params.k
      << " labels=" << params.gen.num_labels << "\n";
  // First line of the divergence, as a comment, for humans browsing the
  // corpus; replay re-derives the ground truth itself.
  const size_t eol = divergence.find('\n');
  if (!divergence.empty()) {
    out << "# divergence: " << divergence.substr(0, eol) << "\n";
  }
  return WriteGraphDatabase(db, out);
}

Status ReplayReproFile(const std::string& path, DifferentialResult* result) {
  *result = DifferentialResult();
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::string header;
  if (!std::getline(in, header) ||
      header.rfind("# partminer-fuzz repro ", 0) != 0) {
    return Status::Corruption(path + ": missing '# partminer-fuzz repro' "
                              "header");
  }

  FuzzCaseParams params;
  std::istringstream tokens(header.substr(std::string("# ").size()));
  std::string token;
  while (tokens >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = token.substr(0, eq);
    const long long value = std::atoll(token.c_str() + eq + 1);
    if (key == "seed") {
      params.seed = static_cast<uint64_t>(value);
    } else if (key == "support") {
      params.min_support = static_cast<int>(value);
    } else if (key == "max_edges") {
      params.max_edges = static_cast<int>(value);
    } else if (key == "k") {
      params.k = static_cast<int>(value);
    } else if (key == "labels") {  // Draws the update stream's relabels.
      params.gen.num_labels = static_cast<int>(value);
    }
  }
  if (params.min_support < 1 || params.max_edges < 1 || params.k < 2) {
    return Status::Corruption(path + ": implausible repro parameters");
  }

  GraphDatabase db;
  PARTMINER_RETURN_IF_ERROR(ReadGraphDatabaseFile(path, &db));
  if (db.size() == 0) return Status::Corruption(path + ": empty database");
  *result = RunAllChecks(db, params);
  return Status::Ok();
}

Status ReplayReproDir(const std::string& dir, int* divergences,
                      int* replayed) {
  *divergences = 0;
  *replayed = 0;
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return Status::Ok();
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() != ".lg") continue;
    DifferentialResult result;
    PARTMINER_RETURN_IF_ERROR(
        ReplayReproFile(entry.path().string(), &result));
    ++*replayed;
    if (!result.ok()) ++*divergences;
  }
  if (ec) return Status::IoError(dir + ": " + ec.message());
  return Status::Ok();
}

}  // namespace testing
}  // namespace partminer
