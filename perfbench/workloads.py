"""The three workloads. Each is a closed loop: a client sends its next
request only when its previous one has been answered.

- oneshot-cold: one `nova encode --pla` process per request, one client.
- serve-warm-hit: one daemon whose cache was filled during set-up, one
  client on a persistent connection; every request is a cache hit.
- serve-cold-store: one daemon with --max-inflight 2 and two clients in
  lockstep. Both send the same pair at once, each under its own state
  rename, fresh every pass, so every request misses, computes, certifies
  and stores, and the two computations share the daemon's compute
  domain. Sending the same pair keeps a request's partner fixed, so its
  latency does not depend on which other pair the shuffle put beside it.

Every timed step (a request, a lockstep wave, a set-up step) runs
between two calibration-kernel brackets and is scaled by REF_UNIT_S over
their mean."""

import threading
import time

import checker
from harness import (
    POOL, RUN_DIR, WARMUP_MACHINE, BenchError, Clock, Daemon, Inputs,
    encode_request, fresh_dir, new_rng, nonce, prom_value, shuffled)


class Run:
    """What one run measured and checked."""

    def __init__(self):
        self.latencies = []  # (raw s, corrected s) per measured request
        self.steps = []  # (raw wall s, corrected wall s, requests) per timed step
        self.setups = []  # corrected set-up seconds
        self.attempted = 0
        self.failed = 0
        self.problems = []  # why requests failed, and run-level check failures
        self.rss_mb = 0.0
        self.area_total = 0
        self.cubes_total = 0

    def fail(self, why):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(why)

    def problem(self, why):
        self.problems.append(why)

    def throughput(self, corrected=True):
        i = 1 if corrected else 0
        return sum(s[2] for s in self.steps) / sum(s[i] for s in self.steps)


def oneshot_problem(code, err):
    if code != 0:
        return "exit code %d: %s" % (code, err.strip()[:200])
    if err:
        return "unexpected stderr: %s" % err.strip()[:200]
    return None


class Workload:
    """Set-up, measured passes and checks of one workload. Subclasses
    provide `setup_once`, `run_pass` and `check`."""

    tracer_mode = None
    setups_per_run = 5  # set-up is timed this many times a run; the median is reported
    # A run measures for --seconds and at least this many requests, whole
    # passes over the pool. More samples per pair steady its p50 and p90;
    # a p90 needs n - ceil(0.9 n) >= 10 samples beyond it, so n >= 100.
    min_samples = 8 * len(POOL)

    def __init__(self, ctx):
        self.ctx = ctx
        self.clock = Clock(ctx.cal)
        self.rng = new_rng(ctx.seed, self.name)
        self.run = Run()
        self.refs = {}  # pair -> canonical text part of the checked one-shot payload
        self.pla_refs = {}  # pair -> its PLA part (one-shot workload only)
        self.prefix = nonce(self.rng)
        self.setup_s = 0.0

    def step(self, fn):
        r, _, corrected = self.clock.timed(fn)
        self.setup_s += corrected
        return r

    def setups(self, count):
        """Set up `count` times, timing each, and keep the last one."""
        for i in range(count):
            if i:
                self.close()
            self.clock.pause()
            self.setup_s = 0.0
            self.setup_once()
            self.run.setups.append(self.setup_s)

    def measure(self, seconds, min_samples):
        start = time.monotonic()
        while time.monotonic() - start < seconds or len(self.run.latencies) < min_samples:
            self.run_pass(shuffled(self.rng, POOL))

    def timed_requests(self, fn):
        """Time a step of one or more requests; fn returns their raw
        latencies, which take the step's correction."""
        lat, raw, corrected = self.clock.timed(fn)
        f = corrected / raw
        self.run.steps.append((raw, corrected, len(lat)))
        self.run.latencies.extend((x, x * f) for x in lat)

    # -- checks

    def references(self, inputs):
        """Run the one-shot CLI with --pla on every pair, check each payload
        against the machine's table and keep its canonical text."""
        for machine, algorithm in POOL:
            _, code, out, err, _ = self.ctx.spawner.run(
                ["encode", "--pla", "-a", algorithm, inputs.path(machine)])
            why = oneshot_problem(code, err) or checker.check_pla_payload(inputs.table(machine), out)
            if why:
                self.run.problem("one-shot reference %s/%s: %s" % (machine, algorithm, why))
                continue
            text, _ = checker.split_payload(out)
            self.refs[(machine, algorithm)] = checker.canonical_text(text, inputs.prefix)

    def totals(self):
        for pair in POOL:
            if pair in self.refs:
                cubes, area = checker.summary(self.refs[pair])
                self.run.cubes_total += cubes
                self.run.area_total += area

    def same_as_ref(self, pair, text, prefix):
        """None when `text`, its rename undone, is the one-shot payload."""
        if pair not in self.refs:
            return "%s/%s: no checked reference" % pair
        try:
            got = checker.canonical_text(text, prefix)
        except ValueError as e:
            return "%s/%s: %s" % (pair + (e,))
        if got != self.refs[pair]:
            return "%s/%s: payload differs from the one-shot payload" % pair
        return None

    def check_daemon(self, expect):
        """Scrape the daemon's stats and metrics and compare its own
        counts with what was sent: {stats key or 'encode_requests': n}."""
        stats, prom = self.daemon.scrape()
        self.scraped = prom
        self.run.rss_mb = self.daemon.vm_hwm_mb()
        stats["encode_requests"] = prom_value(prom, "nova_serve_requests_total", verb="encode")
        for key, want in expect.items():
            if stats.get(key) != want:
                self.run.problem("daemon reports %s = %s, expected %d" % (key, stats.get(key), want))

    def close(self):
        pass


class OneshotCold(Workload):
    name = "oneshot-cold"
    tracer_mode = "oneshot"

    def setup_once(self):
        self.inputs = self.step(lambda: Inputs(self.prefix, "run"))
        _, code, _, err, _ = self.step(lambda: self.ctx.spawner.run(
            ["encode", "--pla", "-a", "ihybrid", self.inputs.path(WARMUP_MACHINE)]))
        if oneshot_problem(code, err):
            raise BenchError("warm-up encode failed: " + oneshot_problem(code, err))
        self.payloads = {}  # pair -> list of payloads

    def run_pass(self, order):
        for machine, algorithm in order:
            out = []

            def request():
                out.append(self.ctx.spawner.run(
                    ["encode", "--pla", "-a", algorithm, self.inputs.path(machine)]))
                return [out[0][0]]

            self.timed_requests(request)
            _, code, payload, err, rss = out[0]
            self.run.rss_mb = max(self.run.rss_mb, rss)
            self.run.attempted += 1
            why = oneshot_problem(code, err)
            if why:
                self.run.fail("%s/%s: %s" % (machine, algorithm, why))
            else:
                self.payloads.setdefault((machine, algorithm), []).append(payload)

    def check(self):
        for pair, outs in self.payloads.items():
            first = outs[0]
            why = checker.check_pla_payload(self.inputs.table(pair[0]), first)
            if why:
                for _ in outs:
                    self.run.fail("%s/%s: %s" % (pair + (why,)))
                continue
            text, self.pla_refs[pair] = checker.split_payload(first)
            self.refs[pair] = checker.canonical_text(text, self.prefix)
            for out in outs[1:]:
                if out != first:
                    self.run.fail("%s/%s: payload differs between runs of one pair" % pair)
        self.totals()


class ServeWarmHit(Workload):
    name = "serve-warm-hit"
    tracer_mode = "warm"
    setups_per_run = 3  # each fills the cache with 15 cold encodes
    min_samples = 10 * len(POOL)

    def __init__(self, ctx):
        super().__init__(ctx)
        self.inputs = Inputs(self.prefix, "run")
        self.daemon = self.conn = None
        self.setup_count = 0
        self.served = {}  # pair -> set of payloads

    def setup_once(self):
        self.setup_count += 1
        self.cache_dir = fresh_dir("%s/cache-warm-%d" % (RUN_DIR, self.setup_count))

        def start():
            self.daemon = Daemon(self.ctx.env, "warm-%d" % self.setup_count, self.cache_dir)
            self.conn = self.daemon.connect()

        self.step(start)
        self.encodes_sent = self.hits_sent = 0
        for machine, algorithm in POOL:
            r = self.step(lambda: self.conn.call(
                encode_request(0, machine, algorithm, self.inputs.text[machine])))
            self.encodes_sent += 1
            if r.get("status") != "ok" or r.get("origin") != "computed":
                raise BenchError("cache fill %s/%s: %s" % (
                    machine, algorithm, r.get("error") or r.get("origin")))
            self.served.setdefault((machine, algorithm), set()).add(r["payload"])

    def hit(self, machine, algorithm):
        """(raw latency, None or why the reply is wrong)."""
        t0 = time.perf_counter()
        r = self.conn.call(encode_request(0, machine, algorithm, self.inputs.text[machine]))
        wall = time.perf_counter() - t0
        self.encodes_sent += 1
        self.hits_sent += 1
        if r.get("status") != "ok":
            return wall, "%s/%s: error reply %s" % (machine, algorithm, r.get("error"))
        if r.get("origin") != "cached":
            return wall, "%s/%s: origin %s, expected cached" % (machine, algorithm, r.get("origin"))
        self.served.setdefault((machine, algorithm), set()).add(r["payload"])
        return wall, None

    def warm_up(self):
        for machine, algorithm in POOL:
            _, why = self.hit(machine, algorithm)
            if why:
                self.run.problem("warm-up " + why)

    def run_pass(self, order):
        for machine, algorithm in order:
            out = []

            def request():
                out.append(self.hit(machine, algorithm))
                return [out[0][0]]

            self.timed_requests(request)
            self.run.attempted += 1
            if out[0][1]:
                self.run.fail(out[0][1])

    def check(self):
        self.check_daemon({"encode_requests": self.encodes_sent, "cache_hits": self.hits_sent})
        self.close()
        self.references(self.inputs)
        for pair, payloads in self.served.items():
            for text in payloads:
                why = self.same_as_ref(pair, text, self.prefix)
                if why:
                    self.run.fail(why)
        self.totals()

    def close(self):
        if self.conn:
            self.conn.close()
            self.conn = None
        if self.daemon:
            self.daemon.stop()
            self.daemon = None


class ServeColdStore(Workload):
    name = "serve-cold-store"
    tracer_mode = "cold"
    CLIENTS = 2
    min_samples = 4 * CLIENTS * len(POOL)
    setups_per_run = 9  # a set-up is a daemon start of a few ms; more of them steady the median

    def __init__(self, ctx):
        super().__init__(ctx)
        self.daemon = None
        self.conns = []
        self.setup_count = 0
        self.encodes_sent = 0
        self.served = []  # (pair, payload, prefix)

    def setup_once(self):
        self.setup_count += 1
        self.cache_dir = fresh_dir("%s/cache-cold-%d" % (RUN_DIR, self.setup_count))

        def start():
            self.daemon = Daemon(self.ctx.env, "cold-%d" % self.setup_count, self.cache_dir,
                                 max_inflight=self.CLIENTS)
            self.conns = [self.daemon.connect() for _ in range(self.CLIENTS)]

        self.step(start)

    def run_pass(self, order):
        prefixes = []
        while len(prefixes) < self.CLIENTS:
            p = nonce(self.rng)
            if p != self.prefix and p not in prefixes:
                prefixes.append(p)
        texts = [Inputs(p, "pass-%d" % i).text for i, p in enumerate(prefixes)]
        self.clock.pause()
        for machine, algorithm in order:
            replies = [None] * self.CLIENTS
            lat = [0.0] * self.CLIENTS

            def client(i):
                t0 = time.perf_counter()
                replies[i] = self.conns[i].call(
                    encode_request(i, machine, algorithm, texts[i][machine]))
                lat[i] = time.perf_counter() - t0

            def wave():
                threads = [threading.Thread(target=client, args=(i,)) for i in range(self.CLIENTS)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                return lat

            self.timed_requests(wave)
            for r, prefix in zip(replies, prefixes):
                self.encodes_sent += 1
                self.run.attempted += 1
                if r is None or r.get("status") != "ok":
                    self.run.fail("%s/%s: error reply %s" % (machine, algorithm, r and r.get("error")))
                elif r.get("origin") != "computed":
                    self.run.fail("%s/%s: origin %s, expected computed" % (
                        machine, algorithm, r.get("origin")))
                else:
                    self.served.append(((machine, algorithm), r["payload"], prefix))

    def check(self):
        n = self.encodes_sent
        self.check_daemon({"encode_requests": n, "cache_stores": n, "cache_hits": 0, "coalesced": 0})
        self.close()
        self.references(Inputs(self.prefix, "ref"))
        for pair, text, prefix in self.served:
            why = self.same_as_ref(pair, text, prefix)
            if why:
                self.run.fail(why)
        self.totals()

    def close(self):
        for c in self.conns:
            c.close()
        self.conns = []
        if self.daemon:
            self.daemon.stop()
            self.daemon = None


WORKLOADS = {w.name: w for w in (OneshotCold, ServeWarmHit, ServeColdStore)}


def run_untraced(ctx, cls):
    w = cls(ctx)
    try:
        w.setups(w.setups_per_run)
        if isinstance(w, ServeWarmHit):
            w.warm_up()
        w.measure(ctx.seconds, w.min_samples)
        w.check()
    finally:
        w.close()
    return w
