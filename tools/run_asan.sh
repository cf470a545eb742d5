#!/bin/sh
# AddressSanitizer + UndefinedBehaviorSanitizer sweep of the whole test
# suite: heap misuse in the TID-set arithmetic (the inline TIDs share
# storage with the dense form's word block, which every crossing of the
# inline/dense boundary allocates or frees), the root frontier's
# epoch-stamped entries and their compaction, the session's snapshot copies,
# the buffer pool's frames, and everything else ctest covers. Builds into
# build-asan/ (kept separate from the regular build; ASan is
# ABI-incompatible with it) and runs the full ctest suite under options
# that fail on the first report. Companion to tools/run_tsan.sh —
# thread and address sanitizers cannot share a build.
#
# Usage: tools/run_asan.sh [extra ctest args...]
set -eu

cd "$(dirname "$0")/.."

cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  "-DPARTMINER_SANITIZE=address;undefined"
cmake --build build-asan -j "$(nproc)"

ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 strict_string_checks=1" \
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  ctest --test-dir build-asan --output-on-failure "$@"
