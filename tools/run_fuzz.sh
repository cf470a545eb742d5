#!/bin/sh
# Differential-fuzzing smoke sweep: builds partminer_fuzz under ASan+UBSan
# and runs a seed sweep plus the storage fault-injection grids. Any miner
# divergence writes a minimized repro into the divergence corpus and fails
# the run; any fault-contract violation (crash, leak, or silently wrong
# result under injected I/O errors) fails it too. Finally the checked-in
# BENCH_*.json records are cross-checked with tools/bench_compare.py so the
# correctness sweep and the perf gate travel together.
#
# Usage: tools/run_fuzz.sh [--smoke] [--seeds=N] [--bin=PATH] [--corpus=DIR]
#
#   --smoke       50-seed sweep with small databases (the ctest `slow`
#                 target run_fuzz_smoke uses this).
#   --seeds=N     Override the seed count (default: 50 smoke, 1000 full).
#   --bin=PATH    Use an already-built partminer_fuzz instead of making the
#                 ASan build (ctest passes the regular build's binary; the
#                 dedicated ASan sweep stays available by omitting --bin).
#   --corpus=DIR  Divergence-corpus directory (default data/corpus/divergence).
set -eu

cd "$(dirname "$0")/.."

SMOKE=0
SEEDS=""
BIN=""
CORPUS="data/corpus/divergence"
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=1 ;;
    --seeds=*) SEEDS="${arg#--seeds=}" ;;
    --bin=*) BIN="${arg#--bin=}" ;;
    --corpus=*) CORPUS="${arg#--corpus=}" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

if [ -z "$SEEDS" ]; then
  if [ "$SMOKE" = 1 ]; then SEEDS=50; else SEEDS=1000; fi
fi

if [ -z "$BIN" ]; then
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    "-DPARTMINER_SANITIZE=address;undefined"
  cmake --build build-asan -j "$(nproc)" \
    --target partminer_fuzz partminerd partminer_cli
  BIN=build-asan/tools/partminer_fuzz
fi

FLAGS="--seeds=$SEEDS --corpus=$CORPUS"
if [ "$SMOKE" = 1 ]; then FLAGS="$FLAGS --smoke"; fi

echo "== partminer_fuzz $FLAGS"
ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 strict_string_checks=1" \
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  "$BIN" $FLAGS

# Daemon fault grid: drive the real partminerd binary over --stdio with
# scripted read/write/alloc faults armed. Contract: every request gets a
# structured response (success or clean error), the process survives every
# fault (the post-fault ping answers ok), and a restore that hits a read
# fault refuses to start while the fault-free retry comes up. Skipped when
# the sibling binaries are not built (e.g. a hand-rolled --bin path).
TOOLS_DIR="$(dirname "$BIN")"
if [ -x "$TOOLS_DIR/partminerd" ] && [ -x "$TOOLS_DIR/partminer" ]; then
  echo "== partminerd fault grid"
  GRID_TMP="$(mktemp -d)"
  trap 'rm -rf "$GRID_TMP"' EXIT
  "$TOOLS_DIR/partminer" gen --d=40 --output="$GRID_TMP/grid.lg" >/dev/null
  REQS='{"id":1,"cmd":"ping"}
{"id":2,"cmd":"update","wait":true,"edits":[{"kind":"relabel","graph":0,"vertex":0,"label":1}]}
{"id":3,"cmd":"snapshot","path":"'"$GRID_TMP"'/snap"}
{"id":4,"cmd":"ping"}
{"id":5,"cmd":"shutdown"}'
  for spec in --fault-write=once:0 --fault-write=p:0.5 \
              --fault-alloc=once:0 --fault-alloc=p:0.5 --fault-read=once:0; do
    echo "-- partminerd --stdio $spec"
    OUT="$(printf '%s\n' "$REQS" | \
      "$TOOLS_DIR/partminerd" --input="$GRID_TMP/grid.lg" --stdio \
        --support=0.3 "$spec" 2>/dev/null)" || {
      echo "daemon died under $spec" >&2; exit 1; }
    [ "$(printf '%s\n' "$OUT" | wc -l)" -eq 5 ] || {
      echo "missing responses under $spec" >&2; exit 1; }
    printf '%s\n' "$OUT" | sed -n 4p | grep -q '"ok":true' || {
      echo "daemon stopped serving after $spec" >&2; exit 1; }
  done
  # A clean snapshot now exists at $GRID_TMP/snap.db.lg (written by the
  # read-fault round, whose write path was fault-free).
  if "$TOOLS_DIR/partminerd" --restore="$GRID_TMP/snap" --stdio \
       --fault-read=once:0 </dev/null >/dev/null 2>&1; then
    echo "restore under an armed read fault unexpectedly started" >&2
    exit 1
  fi
  printf '{"id":1,"cmd":"ping"}\n{"id":2,"cmd":"shutdown"}\n' | \
    "$TOOLS_DIR/partminerd" --restore="$GRID_TMP/snap" --stdio \
      2>/dev/null | sed -n 1p | grep -q '"ok":true' || {
    echo "fault-free restore retry failed" >&2; exit 1; }
else
  echo "== partminerd fault grid skipped (no sibling partminerd binary)"
fi

# Perf gate: pair every *_ms block shared by the checked-in BENCH records
# and fail on >10% regressions. Self-comparison keeps the gate wired (and
# exercised) even when only one record of a kind exists.
for record in BENCH_*.json; do
  [ -e "$record" ] || continue
  echo "== bench_compare $record"
  python3 tools/bench_compare.py "$record" "$record" --threshold=0.10
done

echo "run_fuzz: OK"
