#!/usr/bin/env python3
"""End-to-end benchmark of PartMiner: build, run one workload, check, report.

Run from the repository root:

  python3 perfbench/run.py --workload static_mine --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end metrics of BENCHMARK.json; with `--trace 1` they are its
per-layer metrics, from a traced run, plus the tracing overhead measured
against an untraced run of the same length. The human-readable report goes
to standard error, and the full result record is appended to
.bench_run/records.jsonl. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
RUN_DIR = ".bench_run"
DEADLINE_S = 160  # Every invocation must finish within 180 s once built.
BUILD_TYPE = "Release"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds pm_bench and partminerd from source."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: repository sources (src/) not found next to perfbench/")
        return False
    build_dir = os.path.join(ROOT, BUILD_DIR)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", build_dir, "--target", "pm_bench",
                  "partminerd", "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT)
        if done.returncode != 0:
            log("error: build step failed: " + " ".join(step))
            return False
    return True


def run_binary(workload, seed, seconds, trace, smoke, deadline):
    """Runs pm_bench once; returns its record (dict) or None."""
    os.makedirs(os.path.join(ROOT, RUN_DIR), exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "pm_bench"), "--workload=" + workload,
           "--seed=%d" % seed, "--seconds=%r" % seconds,
           "--trace=%d" % trace, "--workdir=" + RUN_DIR,
           "--daemon=" + os.path.join(BUILD_DIR, "partminerd")]
    if smoke:
        cmd.append("--smoke")
    # A session of its own, so a timeout also takes down the daemon it spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("error: %s run exceeded its time limit" % workload)
        return None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # Stray children, if any.
        except ProcessLookupError:
            pass
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("error: pm_bench exited with status %d" % proc.returncode)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        log("error: pm_bench printed no result record")
        return None


def git_rev():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        dirty = subprocess.run(["git", "status", "--porcelain", "src", "tools"],
                               cwd=ROOT, capture_output=True, text=True,
                               timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if done.returncode != 0:
        return "unknown"
    return done.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def check_metrics(metrics, wanted):
    """Names every wanted metric that is missing or has the wrong unit."""
    problems = []
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("missing metric " + m["name"])
        elif got.get("unit") != m["unit"]:
            problems.append("metric %s has unit %r, want %r"
                            % (m["name"], got.get("unit"), m["unit"]))
    return problems


def measure(workload, seed, seconds, trace, smoke, deadline):
    """One benchmark result: (result line dict, full record) or None."""
    if not trace:
        record = run_binary(workload, seed, seconds, 0, smoke, deadline)
        if record is None:
            return None
        metrics = record["metrics"]
        attempted, failed = record["attempted"], record["failed"]
        correct = record["correct"]
    else:
        # Same work, half the time each: untraced first, then traced; the
        # tracing overhead compares the two runs' primary latency.
        half = seconds / 2.0
        plain = run_binary(workload, seed, half, 0, smoke, deadline)
        record = plain and run_binary(workload, seed, half, 1, smoke, deadline)
        if record is None:
            return None
        base = plain["metrics"]["primary_ms"]["value"]
        traced = record["metrics"]["primary_ms"]["value"]
        metrics = dict(record["layer_metrics"])
        metrics["trace_overhead_frac"] = {
            "value": traced / base - 1 if base > 0 else 0, "unit": "frac"}
        record["layer_metrics"] = metrics
        record["untraced_metrics"] = plain["metrics"]
        attempted = plain["attempted"] + record["attempted"]
        failed = plain["failed"] + record["failed"]
        correct = plain["correct"] and record["correct"]
    record["stamp"]["git_rev"] = git_rev()
    record["stamp"]["src_digest"] = source_digest()
    line = {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}
    return line, record


def append_record(record):
    with open(os.path.join(ROOT, RUN_DIR, "records.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def smoke():
    """Every workload at toy size, traced and untraced: names, units, 0 failures."""
    spec = load_spec()
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            deadline = time.time() + DEADLINE_S
            result = measure(w["name"], 1, 2.0, trace, True, deadline)
            if result is None:
                log("SMOKE FAIL %s trace=%d: no result" % (w["name"], trace))
                ok = False
                continue
            line, record = result
            append_record(record)
            wanted = spec["per_layer" if trace else "end_to_end"]
            problems = check_metrics(line["metrics"], wanted)
            if line["failed"] != 0 or not line["correct"]:
                problems.append("%d of %d operations failed"
                                % (line["failed"], line["attempted"]))
            for p in problems:
                log("SMOKE FAIL %s trace=%d: %s" % (w["name"], trace, p))
            ok = ok and not problems
            if not problems:
                log("smoke ok   %s trace=%d (%d operations)"
                    % (w["name"], trace, line["attempted"]))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy size and check names")
    args = parser.parse_args()
    if not build():
        return 1
    if args.smoke:
        ok = smoke()
        print(json.dumps({"smoke": "ok" if ok else "failed"}))
        return 0 if ok else 1
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("error: unknown workload %r" % args.workload)
        return 2
    result = measure(args.workload, args.seed, args.seconds, args.trace,
                     False, time.time() + DEADLINE_S)
    if result is None:
        return 1
    line, record = result
    append_record(record)
    problems = check_metrics(
        line["metrics"], spec["per_layer" if args.trace else "end_to_end"])
    if problems:
        for p in problems:
            log("error: " + p)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
