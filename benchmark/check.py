#!/usr/bin/env python3
"""Steadiness checks for the benchmark, read from BENCHMARK.json.

  python3 benchmark/check.py aa [--seed N]
      A/A: run every workload three times on the same code -- seed N, seed N
      again, seed N+1 -- and print per workload x end-to-end metric the
      values, the ratios to the first run, and PASS/FAIL against the
      metric's bound. (`benchmark/aa.sh` calls this.)

  python3 benchmark/check.py spread [--runs 10] [--sets 2] [--workload W ...]
      The acceptance rule of the benchmark's contract: per workload, `runs`
      runs on seeds 1..runs; per end-to-end metric the interquartile
      distance (statistics.quantiles(values, n=4)) as a share of the
      median must stay within the bound (a third of it is the target), and
      the median of a second set must not be worse than the first by more
      than the bound.

Run from the root of a checkout. Exit code 1 when anything fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = SPEC["end_to_end"]


def run(workload, seed, trace=0):
    """One run of the benchmark's command; returns its metrics as {name: value}."""
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(cmd)}: incorrect ({result['failed']} of {result['attempted']} failed)")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(metric, base, other):
    """By what share of `base` the value `other` is worse (negative: better)."""
    change = (other - base) / base
    return change if metric["better"] == "lower" else -change


def aa(args):
    failed = False
    for w in args.workload:
        runs = [run(w, args.seed), run(w, args.seed), run(w, args.seed + 1)]
        print(f"{w}: seed {args.seed} | seed {args.seed} again | seed {args.seed + 1}")
        for m in METRICS:
            a, b, c = (r[m["name"]] for r in runs)
            verdicts = []
            for other in (b, c):
                ok = worse_by(m, a, other) <= m["bound"]
                failed |= not ok
                verdicts.append(f"{other / a:6.3f} {'PASS' if ok else 'FAIL'}")
            print(f"  {m['name']:<20} {a:14.4f} {b:14.4f} {c:14.4f} {m['unit']:<8}"
                  f" ratio {verdicts[0]} | {verdicts[1]}  (bound {m['bound']})")
    return failed


def spread(args):
    failed = False
    for w in args.workload:
        sets = [[run(w, seed) for seed in range(1, args.runs + 1)] for _ in range(args.sets)]
        print(f"{w}: {args.sets} set(s) of {args.runs} runs")
        for m in METRICS:
            medians = []
            cells = []
            for runs in sets:
                values = [r[m["name"]] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                share = (q3 - q1) / med
                medians.append(med)
                # setup_s is exempt from the spread rule, not from the median rule.
                ok = share <= m["bound"] or m["name"] == "setup_s"
                steady = share <= m["bound"] / 3
                failed |= not ok
                cells.append(f"median {med:12.4f} iqr/median {share:6.3f} "
                             f"{'ok' if steady else 'WIDE' if ok else 'FAIL'}")
            drift = ""
            if len(medians) > 1:
                by = worse_by(m, medians[0], medians[1])
                ok = by <= m["bound"]
                failed |= not ok
                drift = f" | second median worse by {by:+.3f} {'ok' if ok else 'FAIL'}"
            print(f"  {m['name']:<20} " + " | ".join(cells) + drift + f"  (bound {m['bound']})")
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=["aa", "spread"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    args.workload = args.workload or [w["name"] for w in SPEC["workloads"]]
    failed = aa(args) if args.mode == "aa" else spread(args)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
