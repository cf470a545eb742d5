#!/bin/sh
# ThreadSanitizer sweep of the concurrent paths: work-stealing pool,
# parallel gSpan/Gaston subtree mining, PartMiner/IncPartMiner unit
# scheduling, and the buffer pool. Builds into build-tsan/ (kept
# separate from the regular build; TSan is ABI-incompatible with it) and
# runs the full ctest suite under TSAN_OPTIONS that fail on any report.
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
