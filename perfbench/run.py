#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload flow --seed 1 --seconds 30 --trace 0

builds perfbench/perfbench.exe with dune (release profile) and runs it.
The last line of its standard output is the JSON result; the exit code is
non-zero when the build fails or an output check fails.

Steadiness mode runs a workload on RUNS consecutive seeds, prints the
median and quartiles of every end-to-end metric and the spread between
the quartiles as a share of the median, then makes one traced run and
prints its trace overhead:

    python3 perfbench/run.py --workload flow --seed 1 --seconds 30 --runs 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("perfbench: no dune-project at %s; run from a css_schedule checkout" % ROOT)
    # The shared dune cache lives outside the checkout; keep the build in it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release", "--display", "quiet",
           "./perfbench/perfbench.exe"]
    try:
        code = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, env=env).returncode
    except FileNotFoundError:
        sys.exit("perfbench: dune not found")
    if code != 0:
        sys.exit("perfbench: build failed (exit %d)" % code)


def run_once(workload, seed, seconds, trace):
    """Runs the benchmark once; returns the parsed result line."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True).stdout
    sys.stderr.write(out)
    return json.loads(out.strip().splitlines()[-1])


def steadiness(args):
    values = {}
    correct = True
    for seed in range(args.seed, args.seed + args.runs):
        result = run_once(args.workload, seed, args.seconds, 0)
        correct = correct and result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
    print("%-18s %14s %14s %14s %8s  (%s, %d seeds from %d)"
          % ("metric", "q1", "median", "q3", "spread", args.workload, args.runs, args.seed))
    for name, (unit, xs) in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-18s %14.4f %14.4f %14.4f %7.2f%%  %s" % (name, q1, med, q3, 100 * spread, unit))
    traced = run_once(args.workload, args.seed, args.seconds, 1)
    correct = correct and traced["correct"]
    print("trace.overhead_pct %.2f %%" % traced["metrics"]["trace.overhead_pct"]["value"])
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["flow", "eco", "css"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--runs", type=int, default=0,
                        help="steadiness mode: this many untraced runs on consecutive seeds")
    args = parser.parse_args()
    build()
    if args.runs > 0:
        return steadiness(args)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
