#!/usr/bin/env python3
"""Steadiness mode: run one workload N times with different seeds and
print, for every metric, its median, its spread (the distance between
the first and third quartiles as a share of the median, as
statistics.quantiles(values, n=4) gives them) and the metric's bound
from BENCHMARK.json. A spread above a third of its bound is flagged.

    python3 perfbench/steady.py --workload serve-warm-hit --runs 10 --first-seed 1
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="append each run's result line to this file")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
        if r.returncode != 0 or not last.startswith("{"):
            print("seed %d: exit %d\n%s" % (seed, r.returncode, r.stderr[-2000:]), file=sys.stderr)
            return 1
        result = json.loads(last)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, "result": result}) + "\n")
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]), flush=True)
        for m, v in result["metrics"].items():
            values.setdefault(m, []).append(v["value"])

    print("%-30s %14s %8s %8s" % ("metric", "median", "spread", "bound"))
    for m in sorted(values):
        s = spread(values[m]) if len(values[m]) >= 2 else float("nan")
        b = bounds.get(m)
        flag = ""
        if b is not None and s > b:
            flag = "OVER BOUND"
        elif b is not None and s > b / 3:
            flag = "over a third of the bound"
        print("%-30s %14.6g %8.4f %8s %s" % (
            m, statistics.median(values[m]), s, "-" if b is None else "%.3f" % b, flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
