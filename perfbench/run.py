#!/usr/bin/env python3
"""The repository's benchmark: state-assignment requests against the
`nova` command line and the `nova serve` daemon, timed from outside.

    python3 perfbench/run.py --workload oneshot-cold --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it builds the program first. With
--trace 0 it prints the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones. The last line of stdout is one JSON object
{correct, attempted, failed, metrics}; the lines before it give each
figure with its sample count, and the raw (uncorrected) figures. See
perfbench/README.md for the workloads and the drift correction."""

import argparse
import json
import os
import subprocess
import sys

from harness import (
    ROOT, RUN_DIR, BenchError, Calibrator, Spawner, child_env, fresh_dir, median,
    quantile)
import layers
from workloads import WORKLOADS, run_untraced


def declared_units(trace):
    """{metric: unit} of the metrics BENCHMARK.json declares for the mode."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


class Ctx:
    def __init__(self, seed, seconds, env):
        self.seed = seed
        self.seconds = seconds
        self.env = env
        self.spawner = Spawner(env)
        self.cal = Calibrator(env)

    def close(self):
        self.cal.close()
        self.spawner.close()


def build(env, trace):
    targets = ["./bin/nova_cli.exe", "./perfbench/calib/calib.exe"]
    if trace:
        targets.append("./perfbench/tracer.exe")
    r = subprocess.run(["dune", "build", "--root", "."] + targets, env=env,
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError("the build failed (dune exit code %d)" % r.returncode)


def end_to_end(w):
    run = w.run
    corrected = [c for _, c in run.latencies]
    raw = [r for r, _ in run.latencies]
    p50, n, b50 = quantile(corrected, 0.5, 10)
    p90, _, b90 = quantile(corrected, 0.9, 10)
    metrics = {
        "throughput_rps": run.throughput(),
        "latency_p50_s": p50,
        "latency_p90_s": p90,
        "ok_share": (run.attempted - run.failed) / run.attempted,
        "area_total": run.area_total,
        "cubes_total": run.cubes_total,
        "peak_rss_mb": run.rss_mb,
        "setup_s": median(run.setups),
    }
    notes = {
        "throughput_rps": "%d requests in %d timed steps; raw %.4f" % (n, len(run.steps), run.throughput(False)),
        "latency_p50_s": "n=%d, %d beyond; raw %.4f" % (n, b50, quantile(raw, 0.5, 10)[0]),
        "latency_p90_s": "n=%d, %d beyond; raw %.4f" % (n, b90, quantile(raw, 0.9, 10)[0]),
        "ok_share": "failed_share %.4f = %d of %d" % (run.failed / run.attempted, run.failed, run.attempted),
        "setup_s": "median of %d set-ups: %s" % (len(run.setups), " ".join("%.4f" % s for s in run.setups)),
    }
    return metrics, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    if not all(os.path.exists(p) for p in ("dune-project", "bin/nova_cli.ml", "lib")):
        print("perfbench: %s holds no nova checkout to build and measure" % ROOT, file=sys.stderr)
        return 2
    fresh_dir(RUN_DIR)
    env = child_env()
    ctx = None
    try:
        build(env, args.trace)
        ctx = Ctx(args.seed, args.seconds, env)
        cls = WORKLOADS[args.workload]
        if args.trace:
            w, metrics = layers.run_traced(ctx, cls)
            notes = {}
        else:
            w = run_untraced(ctx, cls)
            metrics, notes = end_to_end(w)
        units = declared_units(args.trace)
        if set(metrics) != set(units):
            raise BenchError("measured metrics differ from BENCHMARK.json's: %s"
                             % sorted(set(metrics) ^ set(units)))
    except BenchError as e:
        print("perfbench: %s: %s" % (args.workload, e), file=sys.stderr)
        return 1
    finally:
        if ctx:
            ctx.close()

    run = w.run
    factors = sorted(w.clock.factors)
    print("%s seed %d: drift factors %.3f..%.3f (median %.3f) over %d brackets" % (
        args.workload, args.seed, factors[0], factors[-1], median(factors), len(factors)))
    for m in sorted(metrics):
        print("  %-30s %14.6g %-6s %s" % (m, metrics[m], units[m], notes.get(m, "")))
    for p in run.problems:
        print("  problem: " + p)
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in sorted(metrics)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
