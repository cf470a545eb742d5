// adi_rebuild: AdiMine::RebuildIndex + Mine on an updated database through
// a 32-frame buffer pool, the only update path the disk-based baseline has.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <memory>

#include "adi/adi_miner.h"
#include "datagen/update_generator.h"
#include "util.h"

namespace pmbench {

using namespace partminer;

namespace {

AdiMineOptions PoolOptions(const std::string& path) {
  AdiMineOptions options;
  options.pool = PoolSizing();
  options.pool.frames = 32;
  options.file_path = path;
  options.io_delay_us = 0;
  return options;
}

}  // namespace

int RunAdiRebuild(const Config& config, Outcome* out) {
  const GraphDatabase base = MakeDatabase(config);
  const std::string path = config.workdir + "/adi_rebuild.pages";
  MinerOptions mine_options;
  mine_options.min_support =
      std::max(1, static_cast<int>(std::ceil(Config::kSupport * base.size())));

  // Set-up is the first BuildIndex, repeated for at least a second; the
  // last index built stays in use.
  std::unique_ptr<AdiMine> adi;
  const Clock::time_point setup_start = Clock::now();
  for (int i = 0; i < 5 || MsSince(setup_start) < 1000; ++i) {
    adi.reset();
    adi = std::make_unique<AdiMine>(PoolOptions(path));
    Status built;
    const Timed t = out->Time([&] { built = adi->BuildIndex(base); });
    out->setup_s.Add(t.ref_ms / 1e3);
    out->AddTiming("setup", t);
    if (!built.ok()) {
      std::fprintf(stderr, "error: %s\n", built.ToString().c_str());
      return 1;
    }
  }
  if (config.trace) {
    double gspan_seconds = 0;
    Samples& ref = out->Timing("miner.gspan_ref");
    for (int i = 0; i < 3; ++i) {
      GSpanDigest(base, &gspan_seconds);
      ref.Add(gspan_seconds * 1e3);
    }
  }

  int64_t reads0 = 0, writes0 = 0, hits0 = 0, misses0 = 0, evictions0 = 0;
  double build_ms = 0, scan_ms = 0, search_ms = 0;
  Samples wall;
  int64_t op = 0;
  for (Window window(config); window.Next(); ++op) {
    if (window.measured() && wall.empty()) {
      const IoStats& io = adi->io_stats();
      reads0 = io.page_reads;
      writes0 = io.page_writes;
      hits0 = io.pool_hits;
      misses0 = io.pool_misses;
      evictions0 = io.evictions;
    }
    GraphDatabase db = base;
    UpdateOptions update;
    update.fraction_graphs = 0.10;
    update.hotspot_locality = 1.0;
    update.seed = config.Derived(static_cast<uint64_t>(op));
    ApplyUpdates(&db, Config::kLabels, update);

    PatternSet patterns;
    Status status;
    double rebuild_ms = 0;
    const Timed t = out->Time([&] {
      const Clock::time_point start = Clock::now();
      {
        Span span("rebuild");
        status = adi->RebuildIndex(db);
      }
      rebuild_ms = MsSince(start);
      if (status.ok()) {
        Span span("mine");
        status = adi->Mine(mine_options, &patterns);
      }
    });
    const double ms = t.ms;
    const double speed = t.ref_ms / t.ms;  // Reference speed over measured.

    ++out->attempted;
    if (!status.ok()) {
      out->Fail("op " + std::to_string(op) + ": " + status.ToString());
      continue;
    }
    {
      Span span("oracle");
      if (Digest(patterns) != GSpanDigest(db)) {
        out->Fail("op " + std::to_string(op) + ": digest differs from gSpan");
      }
    }
    if (!window.measured()) continue;
    wall.Add(ms);
    out->primary_ms.Add(t.ref_ms);
    out->secondary_ms.Add((ms - rebuild_ms) * speed);
    out->AddTiming("rebuild_mine", t);
    build_ms += rebuild_ms;
    scan_ms += adi->last_scan_seconds() * 1e3;
    search_ms += ms - rebuild_ms - adi->last_scan_seconds() * 1e3;
  }
  out->peak_rss_mb = PeakRssMb(::getpid());
  const IoStats& after = adi->io_stats();
  const double ops = std::max<double>(1, static_cast<double>(wall.n()));
  const double hits = static_cast<double>(after.pool_hits - hits0);
  const double misses = static_cast<double>(after.pool_misses - misses0);
  out->layer["storage.page_reads"] = (after.page_reads - reads0) / ops;
  out->layer["storage.page_writes"] = (after.page_writes - writes0) / ops;
  out->layer["storage.evictions"] = (after.evictions - evictions0) / ops;
  out->layer["storage.pool_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0;
  out->layer["storage.pages"] = static_cast<double>(adi->index().pages_used());
  adi.reset();
  ::unlink(path.c_str());
  if (!config.trace) return 0;

  out->op_wall_ms = wall.Mean();
  out->tiles = {{"adi.build", build_ms / ops},
                {"adi.scan", scan_ms / ops},
                {"adi.search", search_ms / ops}};
  return 0;
}

}  // namespace pmbench
