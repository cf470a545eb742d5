#ifndef PARTMINER_TESTING_FAULT_SWEEP_H_
#define PARTMINER_TESTING_FAULT_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

namespace partminer {
namespace testing {

/// Outcome of a fault-injection sweep. The contract under injected storage
/// faults is correct-or-clean-error: every run must either produce exactly
/// the fault-free result or surface a non-OK Status — never crash, hang, or
/// return a silently wrong answer. `violations` lists every run that broke
/// the contract; an empty list is a pass.
struct FaultSweepOutcome {
  int runs = 0;            // Total fault-injected runs executed.
  int clean_failures = 0;  // Runs that surfaced a non-OK Status.
  int successes = 0;       // Runs that completed with the correct result.
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
};

/// Sweeps the disk-backed ADI miner through a 4-frame buffer pool (every
/// fault point hot): probabilistic faults at
/// p in {0.001, 0.01, 0.1} for each operation kind (read, write, alloc),
/// plus a scripted fail-once schedule over the first operations of each
/// kind. Every injected run must end correct-or-clean-error, and after the
/// injector is detached a rebuild + re-mine must recover the exact
/// fault-free result (no poisoned state).
FaultSweepOutcome RunAdiFaultSweep(uint64_t seed);

/// Sweeps miner-state persistence: saves a mined PartMiner, then attempts
/// loads from truncated and bit-flipped images. Any load that does not
/// fail cleanly must restore exactly the saved pattern set.
FaultSweepOutcome RunStateIoFaultSweep(uint64_t seed);

/// Sweeps the resident mining service: a daemon (session + protocol
/// dispatcher, in-process) is driven through a scripted update / snapshot /
/// query sequence while scripted and probabilistic faults hit the resident
/// paths (batch admission, snapshot writes, snapshot restores). Every
/// response must be a well-formed JSON line that is either a success or a
/// structured error; the daemon must keep serving after every fault; and
/// the final pattern-set digest must equal a from-scratch re-mine of
/// exactly the batches that were acknowledged — a failed request may lose
/// its own work but must never corrupt the resident state.
FaultSweepOutcome RunDaemonFaultSweep(uint64_t seed);

}  // namespace testing
}  // namespace partminer

#endif  // PARTMINER_TESTING_FAULT_SWEEP_H_
