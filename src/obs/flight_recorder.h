#ifndef PARTMINER_OBS_FLIGHT_RECORDER_H_
#define PARTMINER_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace partminer {
namespace obs {

/// What happened, encoded small enough for a lock-free ring slot. Names
/// (FlightEventTypeName) are the strings that appear in dumps and in the
/// `dump` protocol verb.
enum class FlightEventType : int32_t {
  kRequestAdmitted = 0,  // Update admitted to the queue: a=id, b=seq, c=depth.
  kRequestRejected,      // Overload rejection: a=id, b=queued, c=cap.
  kBatchApplied,         // Batch round applied: a=epoch, b=edits, c=units.
  kBatchFailed,          // Batch round dropped: a=edits; detail=status.
  kFaultInjected,        // Storage fault fired: detail=op+context.
  kSnapshotWritten,      // Snapshot file on disk: a=epoch.
  kSnapshotFailed,       // Snapshot request failed: detail=status.
  kQueueHighWater,       // New queue-depth high water: a=depth, b=cap.
  kSlowRequest,          // Request over --slow-ms: a=id, b=us; detail=verb.
  kShutdown,             // Clean stop requested.
};

const char* FlightEventTypeName(FlightEventType type);

/// One decoded flight-recorder event. `ts_us` is microseconds on the steady
/// clock since the recorder was constructed (process start for Global()).
struct FlightEvent {
  uint64_t seq = 0;
  int64_t ts_us = 0;
  FlightEventType type = FlightEventType::kRequestAdmitted;
  int64_t a = 0;
  int64_t b = 0;
  int64_t c = 0;
  std::string detail;
};

/// Fixed-size lock-free ring buffer of recent structured events — the
/// service's black box. Writers (any thread, including the daemon's request
/// and batcher threads) pay a handful of relaxed atomic stores; there is no
/// lock anywhere, so Record() is safe on every hot path and cannot deadlock
/// a crashing process.
///
/// Each slot is a seqlock in miniature: `ready` holds seq+1 and is cleared
/// before the payload is rewritten, so a reader that sees the same nonzero
/// `ready` before and after decoding the payload has a consistent event;
/// anything else is discarded as torn. Payload fields are relaxed atomics
/// (the detail text is packed into words), which keeps concurrent
/// append/snapshot exact under TSan. When two writers lap each other onto
/// the same slot the later seq wins — acceptable for diagnostics.
///
/// DumpToFd is async-signal-safe (no allocation, no locks, no stdio): the
/// SIGSEGV/SIGABRT handlers in partminerd call it to leave a parseable
/// JSON post-mortem even when the heap is toast.
class FlightRecorder {
 public:
  static constexpr size_t kCapacity = 512;  // Power of two.
  static constexpr size_t kDetailWords = 6;
  static constexpr size_t kDetailBytes = kDetailWords * 8;  // Incl. NUL.

  FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Process-wide recorder shared by the service stack and signal handlers.
  static FlightRecorder& Global();

  /// Appends one event. Lock-free; detail is truncated to kDetailBytes-1
  /// and sanitized to printable ASCII so dumps never need escaping.
  void Record(FlightEventType type, int64_t a = 0, int64_t b = 0,
              int64_t c = 0, const char* detail = "");

  /// Events still resident in the ring, oldest first. Concurrent appends
  /// may add or overwrite events while this runs; torn slots are skipped.
  std::vector<FlightEvent> Snapshot() const;

  /// Total events ever recorded / evicted by ring wraparound.
  uint64_t total_recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const {
    const uint64_t total = total_recorded();
    return total > kCapacity ? total - kCapacity : 0;
  }

  /// {"events":[...],"dropped":N} on one line. Allocates; not signal-safe.
  std::string ToJson() const;

  /// Writes ToJson()-equivalent output to `fd` using only write(2) and a
  /// fixed stack buffer. Async-signal-safe.
  void DumpToFd(int fd) const;

  /// Clears the ring (tests delimit scenarios with this). Not safe against
  /// concurrent writers.
  void Reset();

 private:
  struct Slot {
    std::atomic<uint64_t> ready{0};  // 0 = empty/being written, else seq+1.
    std::atomic<int64_t> ts_us{0};
    std::atomic<int32_t> type{0};
    std::atomic<int64_t> a{0};
    std::atomic<int64_t> b{0};
    std::atomic<int64_t> c{0};
    std::atomic<uint64_t> detail[kDetailWords];
  };

  /// POD decode target: usable from the signal path (no allocation).
  struct RawEvent {
    uint64_t seq = 0;
    int64_t ts_us = 0;
    int32_t type = 0;
    int64_t a = 0;
    int64_t b = 0;
    int64_t c = 0;
    char detail[kDetailBytes] = {0};
  };

  /// Decodes slot `index` expecting sequence `seq`; false when empty, torn,
  /// or already lapped by a newer event.
  bool ReadSlot(size_t index, uint64_t seq, RawEvent* out) const;

  std::atomic<uint64_t> head_{0};
  Slot slots_[kCapacity];
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace obs
}  // namespace partminer

#endif  // PARTMINER_OBS_FLIGHT_RECORDER_H_
