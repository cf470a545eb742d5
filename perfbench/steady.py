#!/usr/bin/env python3
"""Steadiness report: repeated benchmark runs of one commit, spread vs bound.

Run from the repository root:

  python3 perfbench/steady.py --workloads static_mine --seeds 1-5
  python3 perfbench/steady.py --seeds 1-10 --sets 2      # every workload

For every workload it runs perfbench/run.py once per seed (untraced), then
prints, per end-to-end metric of BENCHMARK.json and per named timing of the
workload, the median, the quartiles (statistics.quantiles(n=4)) and the
spread (q3 - q1) / median against the metric's bound:

  steady      spread below a third of the bound
  fits        spread within the bound
  UNRESOLVED  spread wider than the bound: a change to this number cannot be
              told from noise, so it must never be reported as unchanged.

With --sets 2 the seed list runs twice and the report adds how far the
second set's median moved from the first, in the metric's worse direction.
Exits 1 when any gated metric is unresolved or drifts past its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = os.path.join(ROOT, ".bench_run", "records.jsonl")

# Named timings that feed each gated metric; they take that metric's bound.
TIMING_BOUND_OF = {
    "mine": "primary_ms", "mine_t4": "secondary_ms",
    "round_2pct": "primary_ms", "round_10pct": "primary_ms",
    "round_40pct": "secondary_ms", "query": "primary_ms",
    "update_applied": "secondary_ms", "rebuild_mine": "primary_ms",
}
MAX_BOUND = 0.25


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    """Runs the benchmark; returns (result line, full record)."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", "0",
           "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit("run.py failed: %s seed %d" % (workload, seed))
    line = json.loads(done.stdout.strip().splitlines()[-1])
    with open(RECORDS) as f:
        record = json.loads(f.read().strip().splitlines()[-1])
    return line, record


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def verdict(rel, bound):
    if rel <= bound / 3:
        return "steady"
    return "fits" if rel <= bound else "UNRESOLVED"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", help="comma list (default: all)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seconds", type=float,
                        help="override run_seconds (tuning only)")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    gated = {m["name"]: m for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)
    seconds = args.seconds or spec["run_seconds"]
    failed = False
    for workload in workloads:
        sets = []
        for _ in range(args.sets):
            values = {}
            for seed in seeds:
                line, record = run_once(workload, seed, seconds)
                if not line["correct"]:
                    failed = True
                    print("%s seed %d: incorrect output" % (workload, seed))
                for name, m in line["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                for name, t in record["timings"].items():
                    for key in ("ref_p50_ms", "p50_ms"):
                        values.setdefault("%s_%s" % (name, key), []).append(
                            t[key])
            sets.append(values)
        stamp = record["stamp"]
        print("\n%s  seeds %s  x%d  (%s, %s cores, rev %s)"
              % (workload, args.seeds, args.sets, stamp["generator"],
                 stamp["cores"], stamp.get("git_rev", "?")))
        print("  %-28s %10s %10s %10s %7s %6s  %-10s %s"
              % ("metric", "q1", "median", "q3", "spread", "bound", "verdict",
                 "drift" if args.sets == 2 else ""))
        for name in sets[0]:
            if name in gated:
                bound = gated[name]["bound"]
                worse_if_higher = gated[name]["better"] == "lower"
            else:
                base = TIMING_BOUND_OF.get(name.rsplit("_", 3)[0]
                                           if "_ref_" in name else
                                           name.rsplit("_", 2)[0])
                bound = gated[base]["bound"] if base in gated else MAX_BOUND
                worse_if_higher = True
            q1, med, q3, rel = spread(sets[0][name])
            drift = ""
            if args.sets == 2:
                med1 = statistics.median(sets[0][name])
                med2 = statistics.median(sets[1][name])
                moved = (med2 - med1) if worse_if_higher else (med1 - med2)
                rel_moved = moved / med1 if med1 else 0.0
                drift = "%+.3f%s" % (rel_moved,
                                     " PAST BOUND" if rel_moved > bound else "")
                if name in gated and rel_moved > bound:
                    failed = True
            if name in gated and name != "setup_s" and rel > bound:
                failed = True
            print("  %-28s %10.4f %10.4f %10.4f %7.3f %6.2f  %-10s %s"
                  % (name, q1, med, q3, rel, bound, verdict(rel, bound), drift))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
