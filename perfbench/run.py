#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload fullstack_10k --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark program (perfbench/src) is
configured and built in .bench_build/ against the library sources in src/,
then run once; its last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}. Result rows (with the
environment record) and, for --trace 1, the recorded spans are written to
.bench_build/results/. Unknown flags are rejected before anything is
built. Exit status is non-zero on a failed build, a failed correctness
check, or a workload that needs more threads than the machine has.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("fullstack_10k", "sharded_50k", "market_1200", "churn_10k")
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build


def run_timeout_s(seconds):
    """A run measures --seconds, finishes the repetition it is in and tops
    up its set-up samples; a stuck run is stopped after this long."""
    return 3.0 * seconds + 120.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                allow_abbrev=False)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="check that the correctness checks catch a corrupted "
                        "tree and a leaked reservation")
    args = p.parse_args(argv)
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE, *generator])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                with open(log_path) as f:
                    tail = f.readlines()[-20:]
                sys.stderr.write("perfbench: build failed (%s):\n%s"
                                 % (log_path, "".join(tail)))
                return False
    return True


def main(argv):
    args = parse_args(argv)
    if not build():
        return 1
    if args.selftest:
        cmd = [BINARY, "--selftest"]
    else:
        out_dir = os.path.join(BUILD, "results")
        os.makedirs(out_dir, exist_ok=True)
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", out_dir]
    sys.stdout.flush()
    timeout = run_timeout_s(0.0 if args.selftest else args.seconds)
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %.0f s and was stopped\n"
                         % timeout)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
