// pmtop — live operator console for a running partminerd.
//
//   pmtop --socket=/path/daemon.sock [--interval-ms=1000] [--iterations=0]
//
// Polls the daemon's `health` and `metrics` verbs on a refresh loop and
// renders a terminal dashboard: health state, uptime, epoch, throughput
// (requests/s from counter deltas), queue occupancy against its cap and
// high water, the root frontier's entries and bytes, per-verb p50/p99
// latency (bucket-estimated, DESIGN.md section 13), and cache hit rates.
// When stdout is a tty the screen is redrawn in place (ANSI home+clear);
// otherwise frames append, which keeps the output pipeable. --iterations=N exits after N frames (0 = forever).

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/timing.h"
#include "service/client.h"
#include "service/json.h"

namespace {

using namespace partminer;
using service::Json;
using service::LineClient;

int Usage() {
  std::fprintf(stderr,
               "usage: pmtop --socket=/path/daemon.sock "
               "[--interval-ms=1000] [--iterations=0]\n");
  return 2;
}

/// One polled frame, decoded from `health` + `metrics` responses.
struct Frame {
  std::string state;
  int64_t epoch = 0;
  int64_t queue_depth = 0;
  int64_t uptime_ms = 0;
  Json registry;  // metrics result.registry (object or null).
};

const Json* Section(const Frame& frame, const char* name) {
  return frame.registry.is_object() ? frame.registry.Get(name) : nullptr;
}

int64_t Counter(const Frame& frame, const char* name) {
  const Json* counters = Section(frame, "counters");
  const Json* c = counters ? counters->Get(name) : nullptr;
  return c != nullptr && c->is_int() ? c->AsInt() : 0;
}

int64_t Gauge(const Frame& frame, const char* name) {
  const Json* gauges = Section(frame, "gauges");
  const Json* g = gauges ? gauges->Get(name) : nullptr;
  return g != nullptr && g->is_int() ? g->AsInt() : 0;
}

double HistField(const Frame& frame, const char* name, const char* field) {
  const Json* histograms = Section(frame, "histograms");
  const Json* h = histograms ? histograms->Get(name) : nullptr;
  const Json* v = h ? h->Get(field) : nullptr;
  return v != nullptr && v->is_number() ? v->AsDouble() : 0;
}

bool Poll(LineClient* client, Frame* frame) {
  std::string response;
  Json parsed;
  if (!client->RoundTrip("{\"cmd\":\"health\"}", &response) ||
      !Json::Parse(response, &parsed).ok()) {
    return false;
  }
  const Json* result = parsed.Get("result");
  const Json* state = result ? result->Get("state") : nullptr;
  const Json* epoch = result ? result->Get("epoch") : nullptr;
  const Json* depth = result ? result->Get("queue_depth") : nullptr;
  if (state == nullptr || !state->is_string()) return false;
  frame->state = state->AsString();
  frame->epoch = epoch != nullptr && epoch->is_int() ? epoch->AsInt() : 0;
  frame->queue_depth =
      depth != nullptr && depth->is_int() ? depth->AsInt() : 0;

  if (!client->RoundTrip("{\"cmd\":\"metrics\"}", &response) ||
      !Json::Parse(response, &parsed).ok()) {
    return false;
  }
  result = parsed.Get("result");
  const Json* uptime = result ? result->Get("uptime_ms") : nullptr;
  frame->uptime_ms =
      uptime != nullptr && uptime->is_int() ? uptime->AsInt() : 0;
  const Json* registry = result ? result->Get("registry") : nullptr;
  frame->registry = registry != nullptr ? *registry : Json::Null();
  return true;
}

void PrintHitRate(const char* label, int64_t hits, int64_t misses) {
  const int64_t total = hits + misses;
  if (total == 0) {
    std::printf("  %-18s      -    (no traffic)\n", label);
    return;
  }
  std::printf("  %-18s %5.1f%%  (%lld of %lld)\n", label,
              100.0 * static_cast<double>(hits) / static_cast<double>(total),
              static_cast<long long>(hits), static_cast<long long>(total));
}

void Render(const Frame& frame, const Frame& previous, double interval_s,
            bool have_previous) {
  if (::isatty(STDOUT_FILENO)) std::printf("\x1b[H\x1b[2J");

  const double uptime_s = static_cast<double>(frame.uptime_ms) / 1e3;
  std::printf("partminerd  state=%s  uptime=%.0fs  epoch=%lld\n",
              frame.state.c_str(), uptime_s,
              static_cast<long long>(frame.epoch));

  const int64_t requests = Counter(frame, "service.requests");
  double rps = 0;
  if (have_previous && interval_s > 0) {
    rps = static_cast<double>(requests -
                              Counter(previous, "service.requests")) /
          interval_s;
  }
  std::printf(
      "requests=%lld (%.0f req/s)  errors=%lld  overloaded=%lld\n",
      static_cast<long long>(requests), rps,
      static_cast<long long>(Counter(frame, "service.errors")),
      static_cast<long long>(Counter(frame, "service.overloaded")));

  const int64_t cap = Gauge(frame, "service.queue_cap");
  std::printf(
      "queue depth=%lld / cap=%lld  high-water=%lld  "
      "edits applied=%lld  batches=%lld (+%lld coalesced)\n",
      static_cast<long long>(frame.queue_depth), static_cast<long long>(cap),
      static_cast<long long>(Gauge(frame, "service.queue_high_water")),
      static_cast<long long>(Counter(frame, "service.edits_applied")),
      static_cast<long long>(Counter(frame, "service.batches_applied")),
      static_cast<long long>(Counter(frame, "service.batches_coalesced")));

  // The dead-entry gauge is set by the `health` call of this same poll.
  std::printf(
      "frontier entries=%lld (dead %lld)  bytes=%lld\n",
      static_cast<long long>(Gauge(frame, "partminer.frontier.entries")),
      static_cast<long long>(Gauge(frame, "partminer.frontier.dead_entries")),
      static_cast<long long>(Gauge(frame, "partminer.frontier.bytes")));

  std::printf("per-verb latency (bucket-estimated ms):\n");
  static constexpr struct {
    const char* label;
    const char* metric;
  } kVerbs[] = {
      {"ping", "service.verb.ping_ms"},
      {"update", "service.verb.update_ms"},
      {"query", "service.verb.query_ms"},
      {"snapshot", "service.verb.snapshot_ms"},
      {"metrics", "service.verb.metrics_ms"},
      {"sync", "service.verb.sync_ms"},
      {"health", "service.verb.health_ms"},
      {"dump", "service.verb.dump_ms"},
  };
  for (const auto& verb : kVerbs) {
    const double count = HistField(frame, verb.metric, "count");
    if (count <= 0) continue;
    std::printf("  %-10s %8.0f calls   p50 %8.3f   p99 %8.3f\n", verb.label,
                count, HistField(frame, verb.metric, "p50"),
                HistField(frame, verb.metric, "p99"));
  }

  std::printf("cache hit rates:\n");
  PrintHitRate("buffer pool", Counter(frame, "storage.pool_hits"),
               Counter(frame, "storage.pool_misses"));

  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  const flags::FlagMap flag_map = flags::Parse(argc, argv);
  flags::WarnUnknown(flag_map, {"socket", "interval-ms", "iterations"});

  const std::string socket_path = flags::Get(flag_map, "socket", "");
  int interval_ms = 0, iterations = 0;
  if (socket_path.empty() ||
      !flags::IntFlag(flag_map, "interval-ms", 1000, &interval_ms) ||
      !flags::IntFlag(flag_map, "iterations", 0, &iterations) ||
      interval_ms <= 0 || iterations < 0) {
    return Usage();
  }

  LineClient client;
  if (!client.Connect(socket_path)) {
    std::fprintf(stderr, "error: cannot connect to %s\n",
                 socket_path.c_str());
    return 1;
  }

  Frame previous;
  bool have_previous = false;
  Stopwatch since_last;
  for (int frame_index = 0; iterations == 0 || frame_index < iterations;
       ++frame_index) {
    Frame frame;
    if (!Poll(&client, &frame)) {
      std::fprintf(stderr, "pmtop: daemon went away\n");
      return 1;
    }
    Render(frame, previous, since_last.ElapsedSeconds(), have_previous);
    since_last.Restart();
    previous = std::move(frame);
    have_previous = true;
    if (iterations == 0 || frame_index + 1 < iterations) {
      ::usleep(static_cast<useconds_t>(interval_ms) * 1000);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
