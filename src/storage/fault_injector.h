#ifndef PARTMINER_STORAGE_FAULT_INJECTOR_H_
#define PARTMINER_STORAGE_FAULT_INJECTOR_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "common/random.h"
#include "common/status.h"

namespace partminer {

/// Deterministic fault-injection hook for the storage layer. A DiskManager
/// with an injector attached consults it before every page read, page write
/// and page allocation; a scheduled fault makes the operation return a
/// non-OK Status (tagged "injected") without touching the backing file.
///
/// Two scheduling modes, combinable per operation:
///
///  - Probabilistic: each operation of kind `op` fails independently with
///    probability p, drawn from a seeded Rng — the same seed and the same
///    operation sequence always fail at the same points.
///  - Scripted: FailOnce(op, n) fails exactly the (n+1)-th operation of that
///    kind; FailN(op, n, count) fails `count` consecutive operations
///    starting there. Scripted faults fire regardless of the probability.
///
/// Thread safety: ShouldFail is serialized by a mutex so concurrent
/// DiskManager callers can share one injector. Under concurrency the
/// per-seed fault *points* depend on the interleaving of operations, but
/// every decision is still drawn from the same deterministic stream.
class FaultInjector {
 public:
  enum class Op { kRead = 0, kWrite = 1, kAlloc = 2 };
  static constexpr int kOpCount = 3;

  explicit FaultInjector(uint64_t seed = 0) : rng_(seed) {}

  /// Every operation of kind `op` fails independently with probability `p`.
  void SetProbability(Op op, double p);

  /// Fails exactly the (`after_n`+1)-th future operation of kind `op`
  /// (after_n counts operations seen from now on, so 0 fails the next one).
  void FailOnce(Op op, int after_n) { FailN(op, after_n, 1); }

  /// Fails `count` consecutive operations of kind `op` starting `after_n`
  /// operations from now.
  void FailN(Op op, int after_n, int count);

  /// Clears every schedule and probability; counters keep running.
  void Reset();

  /// Consulted by the storage layer: true when this operation must fail.
  bool ShouldFail(Op op);

  /// Total operations observed / faults injected, per op kind.
  int64_t operations(Op op) const;
  int64_t injected(Op op) const;
  int64_t total_injected() const;

  static const char* OpName(Op op);

  /// Canonical status for an injected fault ("injected read fault: page 7").
  static Status InjectedFault(Op op, const std::string& detail);

 private:
  struct PerOp {
    double probability = 0;
    int64_t seen = 0;      // Operations of this kind observed.
    int64_t injected = 0;  // Faults delivered.
    // Scripted window [fail_from, fail_from + fail_count) in `seen` counts;
    // fail_from < 0 means no script armed.
    int64_t fail_from = -1;
    int64_t fail_count = 0;
  };

  mutable std::mutex mu_;
  Rng rng_;
  PerOp per_op_[kOpCount];
};

}  // namespace partminer

#endif  // PARTMINER_STORAGE_FAULT_INJECTOR_H_
