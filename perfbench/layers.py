"""The traced run: per-layer metrics for one workload.

It first runs the workload untraced for a short while (its raw
throughput, the daemon's own phase metrics scraped at the end, and the
checked one-shot references), then replays the same kind of requests
in-process with tracer.exe through the program's own entry points. Each
request is replayed twice in a row, once with spans and once without,
and the median of the pairs' wall ratios is the tracing overhead. A
span's self time is its duration minus the time its child spans cover.
The layers under the entry points are read from the program's own
Instrument timers and counters, which only the replay enables. Times
are per-request means, drift-corrected with the kernel brackets around
the replay; counts are per-request means."""

import json
import os
import subprocess

import checker
from harness import (
    POOL, RUN_DIR, TRACER, BenchError, Inputs, fresh_dir, median, nonce, prom_value, shuffled)
from workloads import OneshotCold, ServeColdStore, ServeWarmHit

# Replayed passes after a bare warm-up pass that counts for nothing. In
# each pass every pair runs twice in a row, traced and bare, in an order
# that alternates from pair to pair and pass to pass, so the two kinds
# share the host's drift and neither always runs second.
REPLAY_PASSES = 2
STARTUP_SPAWNS = 9
MIN_COVERAGE = 0.9

# per-layer metric -> span (around a program entry point) whose self time it is
SPAN_METRICS = {
    "fsm.parse_s": "fsm.parse",
    "cli.render_s": "cli.render",
    "serve.render_onehot_s": "render.onehot",
    "serve.render_text_s": "render.text",
    "exec.cache_find_s": "exec.cache_find",
    "exec.cache_store_s": "exec.cache_store",
}
# per-layer metric -> Instrument counter or timer (".s") of the program
COUNTER_METRICS = {
    "nova.work_ticks": "embed.work_ticks",
    "nova.verify_calls": "embed.verify_calls",
    "nova.cap_trips": "nova.cap_trips",
    "espresso.minimize_calls": "espresso.minimize_calls",
    "constraints.extract_s": "pipeline.constraints.s",
    "symbmin.run_s": "pipeline.symbolic-min.s",
    "espresso.implement_s": "driver.implement.s",
    "exec.cache_recertify_s": "exec.cache.recertify.s",
    "check.trace_equivalence_s": "check.trace-equivalence.s",
    "check.cover_containment_s": "check.cover-containment.s",
}
TIMED_COUNTERS = {m for m, key in COUNTER_METRICS.items() if key.endswith(".s")}
# per-layer metric -> the daemon's lifecycle phase
PHASE_METRICS = {
    "serve.parse_s": "parse",
    "serve.admission_wait_s": "admission",
    "serve.compute_s": "compute",
    "serve.render_s": "render",
}
def self_times(spans):
    """{span name: summed self time} and the root's child coverage."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    out = {}
    for s, d, c in zip(spans, dur, child):
        out[s[0]] = out.get(s[0], 0.0) + d - c
    root = [i for i, s in enumerate(spans) if s[3] < 0]
    if len(root) != 1:
        raise BenchError("a replayed request has %d root spans" % len(root))
    r = root[0]
    return out, child[r], dur[r]


def replay(ctx, w, plan, cache_dir):
    """Run tracer.exe over `plan` [(rid, spans, machine, algorithm, path)];
    returns its records and the drift factor of the kernel brackets
    around it."""
    plan_path = os.path.join(RUN_DIR, "plan.tsv")
    out_path = os.path.join(RUN_DIR, "spans.jsonl")
    with open(plan_path, "w") as f:
        for row in plan:
            f.write("\t".join(row) + "\n")
    args = [TRACER, "--mode", w.tracer_mode, "--plan", plan_path, "--out", out_path]
    if cache_dir:
        args += ["--cache", cache_dir]
    w.clock.pause()
    r, raw, corrected = w.clock.timed(
        lambda: subprocess.run(args, env=ctx.env, capture_output=True, text=True))
    if r.returncode != 0:
        raise BenchError("tracer failed (%d): %s" % (r.returncode, r.stderr.strip()[-400:]))
    with open(out_path) as f:
        return [json.loads(l) for l in f if l.strip()], corrected / raw


def replay_plan(w):
    """The warm-up pass and REPLAY_PASSES shuffled passes over the pool as
    plan rows, plus {rid: (pair, prefix)} to check the replayed payloads.
    A rid is pass:index:t (traced) or pass:index:b (bare); the cold
    replay gives each of the two its own rename, so both miss."""
    rows, meta = [], {}
    for p in range(-1, REPLAY_PASSES):
        kinds = "b" if p < 0 else "tb"
        if isinstance(w, ServeColdStore):
            inputs = {k: Inputs(nonce(w.rng), "replay%d%s" % (p, k)) for k in kinds}
        else:
            inputs = {k: w.inputs for k in kinds}
        for i, (machine, algorithm) in enumerate(shuffled(w.rng, POOL)):
            order = kinds if (p + i) % 2 == 0 else kinds[::-1]
            for k in order:
                rid = "%d:%d:%s" % (p, i, k)
                rows.append((rid, "1" if k == "t" else "0", machine, algorithm,
                             inputs[k].path(machine)))
                meta[rid] = ((machine, algorithm), inputs[k].prefix)
    return rows, meta


def check_replayed(w, records, meta):
    for rec in records:
        pair, prefix = meta[rec["rid"]]
        text, pla = checker.split_payload(rec["payload"])
        why = w.same_as_ref(pair, text, prefix)
        if why:
            w.run.fail("replay " + why)
        elif pla != w.pla_refs.get(pair, ""):
            w.run.fail("replay %s/%s: PLA differs from the one-shot PLA" % pair)


def cli_startup(ctx, clock):
    """Median corrected wall of `nova --version`: process start-up and
    exit with no work."""
    xs = []
    clock.pause()
    for _ in range(STARTUP_SPAWNS):
        (_, code, _, _, _), _, corrected = clock.timed(lambda: ctx.spawner.run(["--version"]))
        if code != 0:
            raise BenchError("nova --version exited with %d" % code)
        xs.append(corrected)
    return median(xs)


def run_traced(ctx, cls):
    w = cls(ctx)
    try:
        w.setups(1)
        if isinstance(w, ServeWarmHit):
            w.warm_up()
        w.measure(ctx.seconds / 2.0, 2 * len(POOL))
        w.check()
    finally:
        w.close()
    metrics = {m: 0.0 for m in list(SPAN_METRICS) + list(COUNTER_METRICS) + list(PHASE_METRICS)}
    mean_f = sum(w.clock.factors) / len(w.clock.factors)
    if isinstance(w, OneshotCold):
        metrics["cli.startup_s"] = cli_startup(ctx, w.clock)
    else:
        metrics["cli.startup_s"] = 0.0
        for m, phase in PHASE_METRICS.items():
            s = prom_value(w.scraped, "nova_serve_phase_seconds_sum", phase=phase)
            n = prom_value(w.scraped, "nova_serve_phase_seconds_count", phase=phase)
            metrics[m] = (s / n) * mean_f if n else 0.0

    cache_dir = None
    if isinstance(w, ServeWarmHit):
        cache_dir = w.cache_dir
    elif isinstance(w, ServeColdStore):
        cache_dir = fresh_dir(os.path.join(RUN_DIR, "cache-replay"))

    plan, meta = replay_plan(w)
    records, f = replay(ctx, w, plan, cache_dir)
    check_replayed(w, records, meta)
    records = [r for r in records if not r["rid"].startswith("-1:")]
    walls = {r["rid"]: r["wall_s"] for r in records}
    overhead = median([walls[rid] / walls[rid[:-1] + "b"] for rid in walls if rid.endswith("t")])
    records = [r for r in records if r["traced"]]
    n = len(records)

    sums = {m: 0.0 for m in SPAN_METRICS}
    counts = {m: 0.0 for m in COUNTER_METRICS}
    certify = encode = covered = total = 0.0
    ratios = []
    hits = misses = 0
    for rec in records:
        st, cov, root = self_times(rec["spans"])
        covered += cov
        total += root
        for m, span in SPAN_METRICS.items():
            sums[m] += st.get(span, 0.0) * f
        c = rec["counters"]
        for m, key in COUNTER_METRICS.items():
            counts[m] += (c.get(key) or 0) * (f if m in TIMED_COUNTERS else 1)
        certify += sum(v for k, v in c.items() if k.startswith("check.") and k.endswith(".s")) * f
        rungs = sum(v for k, v in c.items() if k.startswith("pipeline.rung.") and k.endswith(".s"))
        upstream = (c.get("pipeline.constraints.s") or 0) + (c.get("pipeline.symbolic-min.s") or 0)
        encode += (rungs - upstream) * f
        if c.get("nova.ic_satisfied_ratio") is not None:
            ratios.append(c["nova.ic_satisfied_ratio"])
        hits += c.get("exec.cache.hits", 0)
        misses += c.get("exec.cache.misses", 0)
    for m in SPAN_METRICS:
        metrics[m] = sums[m] / n
    for m in COUNTER_METRICS:
        metrics[m] = counts[m] / n
    metrics["check.certify_s"] = certify / n
    metrics["nova.encode_s"] = encode / n
    metrics["nova.ic_satisfied_ratio"] = sum(ratios) / len(ratios) if ratios else 0.0
    metrics["exec.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["bench.calib_s"] = sum(ctx.cal.samples) / len(ctx.cal.samples)
    metrics["bench.raw_throughput_rps"] = w.run.throughput(corrected=False)
    metrics["bench.tracing_overhead_ratio"] = overhead
    metrics["bench.span_coverage"] = covered / total
    if metrics["bench.span_coverage"] < MIN_COVERAGE:
        w.run.problem("spans cover %.3f of request wall time, below %.2f"
                      % (metrics["bench.span_coverage"], MIN_COVERAGE))
    return w, metrics
