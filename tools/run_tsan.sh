#!/bin/sh
# ThreadSanitizer sweep of the concurrent paths: work-stealing pool, the
# pattern-growth loop's subtree fan-out (parallel gSpan/Gaston), PartMiner
# unit scheduling, the buffer pool and the service. Builds into build-tsan/
# (kept separate from the regular build; TSan is ABI-incompatible with it)
# and runs the ctest suite under TSAN_OPTIONS that fail on any report.
# Extra arguments go to ctest; two slow-labelled ctest targets use them:
#   run_tsan_mining   tools/run_tsan.sh -R "ParallelMine|ThreadPool|EngineTest"
#   run_tsan_storage  tools/run_tsan.sh -R "BufferPool"
#
# Usage: tools/run_tsan.sh [extra ctest args...]
set -eu

cd "$(dirname "$0")/.."

cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPARTMINER_SANITIZE=thread
cmake --build build-tsan -j "$(nproc)"

TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ctest --test-dir build-tsan --output-on-failure "$@"
