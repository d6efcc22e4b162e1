#!/usr/bin/env python3
"""Steadiness check: run each workload N times and report the spread.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads sharded_50k --sets 2

Run from the root of a checkout. Each run goes through perfbench/run.py
with its own seed (set k uses seeds seed0 + k*runs + i). For every
end-to-end metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median,
and flags a spread above the metric's bound in BENCHMARK.json ("!") or
above a third of it ("~"). With --sets 2 it also flags a metric whose
second median differs from the first, either way, by more than the
bound. Raw values are saved to
.bench_build/steady.json. Exit status is 1 when anything is flagged or a
run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def worse_by(first, second, better):
    """Relative change from the first median to the second, positive when
    the second is worse."""
    if first == 0:
        return float("inf") if second != first else 0.0
    delta = (second - first) / first
    return delta if better == "lower" else -delta


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                allow_abbrev=False)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--seed0", type=int, default=1000)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")
    metrics = spec["end_to_end"]
    flagged = False
    raw = {}
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for i in range(args.runs):
                seed = args.seed0 + k * args.runs + i
                got = run_once(workload, seed, args.seconds, 0)
                if got is None:
                    print("%s seed %d: run failed" % (workload, seed))
                    flagged = True
                    continue
                for m in metrics:
                    values[m["name"]].append(got[m["name"]])
            sets.append(values)
        raw[workload] = sets
        print("\n%s (%d runs x %d sets)" % (workload, args.runs, args.sets))
        print("  %-14s %5s %14s %14s %14s %8s %6s" %
              ("metric", "set", "median", "q1", "q3", "spread", "bound"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for k, values in enumerate(sets):
                xs = values[name]
                if len(xs) < 2:
                    continue
                median, q1, q3, spread = summarize(xs)
                medians.append(median)
                mark = ""
                if spread > bound:
                    mark, flagged = "!", True
                elif spread > bound / 3:
                    mark = "~"
                print("  %-14s %5d %14.6g %14.6g %14.6g %8.4f %6.3f %s" %
                      (name, k + 1, median, q1, q3, spread, bound, mark))
            if len(medians) == 2:
                delta = worse_by(medians[0], medians[1], m["better"])
                mark = ""
                if abs(delta) > bound:
                    mark, flagged = "!", True
                print("  %-14s  set 2 vs set 1: %+.4f worse (bound %.3f) %s"
                      % (name, delta, bound, mark))
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "steady.json"), "w") as f:
        json.dump(raw, f, indent=1)
    print("\nflagged" if flagged else "\nall spreads within bounds")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
