"""Shared pieces of the benchmark: the request pool, the calibration
kernel client, the one-shot spawner, the daemon client and the
statistics. Nothing here imports the program; it is driven from
outside, through its command line and its socket."""

import json
import math
import os
import random
import shutil
import socket
import subprocess
import time

import checker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = ".perfbench"  # relative to ROOT; every file a run writes lives here
NOVA = "_build/default/bin/nova_cli.exe"
CALIB = "_build/default/perfbench/calib/calib.exe"
TRACER = "_build/default/perfbench/tracer.exe"

# The fixed pool: 15 (machine, algorithm) pairs of suite machines whose
# cold encode takes 15 ms to 0.9 s. An odd count keeps the p50 and p90
# ranks inside one pair's block of samples (ranks 7.5n and 13.5n of 15n),
# never on the edge between two pairs; the pairs at those ranks are 20%
# or more away from their neighbours in one-shot time, so noise does not
# reorder them. Listed in increasing one-shot time.
POOL = [
    ("physrec", "ihybrid"),
    ("iofsm", "ihybrid"),
    ("ex2", "iohybrid"),
    ("scud", "iohybrid"),
    ("keyb", "ihybrid"),
    ("bbara", "ihybrid"),
    ("donfile", "ihybrid"),
    ("bbara", "iohybrid"),
    ("bbsse", "ihybrid"),
    ("cse", "ihybrid"),
    ("bbsse", "iohybrid"),
    ("donfile", "iohybrid"),
    ("dk16", "iohybrid"),
    ("keyb", "iohybrid"),
    ("ex1", "ihybrid"),
]
WARMUP_MACHINE = "lion"


# Seconds per kernel unit that corrected figures are expressed against
# (the kernel's typical unit time on the 2-core x86-64 VM the benchmark
# was written on). It is a unit, not a measurement: it only scales.
REF_UNIT_S = 0.0048
BRACKET_UNITS = 3  # ~15 ms of kernel between timed steps


class BenchError(Exception):
    """A run that cannot produce its metrics."""


def machine_text(name):
    with open(os.path.join(HERE, "machines", name + ".kiss2")) as f:
        return f.read()


def nonce(rng):
    return "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(4)) + "_"


def child_env():
    """The environment every child runs in: no instrumentation switch,
    temporary files and tool caches inside the run directory."""
    env = dict(os.environ)
    env.pop("NOVA_INSTRUMENT", None)
    tmp = os.path.join(ROOT, RUN_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(TMPDIR=tmp, XDG_CACHE_HOME=os.path.join(ROOT, RUN_DIR, "xdg"), DUNE_CACHE="disabled")
    return env


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# --- drift calibration --------------------------------------------------------


class Calibrator:
    """A persistent calib.exe child. `bracket(units)` runs the kernel and
    returns its wall seconds per unit. The correction factor of a timed
    span is REF_UNIT_S over the mean of the brackets before and after."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [CALIB], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        self.samples = []
        for _ in range(3):  # page in and warm the kernel's code
            self.bracket(2)
        self.samples.clear()

    def bracket(self, units):
        self.proc.stdin.write("%d\n" % units)
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("calibration kernel died")
        per_unit = float(line) / units
        self.samples.append(per_unit)
        return per_unit

    def close(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def factor(k_before, k_after):
    return REF_UNIT_S / ((k_before + k_after) / 2.0)


class Clock:
    """Times steps between kernel brackets. Consecutive steps share the
    bracket between them; `pause` makes the next step open a fresh one
    (after untimed work)."""

    def __init__(self, cal):
        self.cal = cal
        self.k = None
        self.factors = []

    def timed(self, fn):
        """(fn's result, raw wall s, corrected wall s)."""
        if self.k is None:
            self.k = self.cal.bracket(BRACKET_UNITS)
        t0 = time.perf_counter()
        r = fn()
        wall = time.perf_counter() - t0
        k1 = self.cal.bracket(BRACKET_UNITS)
        f = factor(self.k, k1)
        self.k = k1
        self.factors.append(f)
        return r, wall, wall * f

    def pause(self):
        self.k = None


# --- statistics ---------------------------------------------------------------


def quantile(values, q, min_beyond):
    """Nearest-rank quantile: (value, sample count, samples beyond it).
    Refuses to give a quantile with fewer than `min_beyond` samples
    beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise BenchError("no samples for p%g" % (q * 100))
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < min_beyond:
        raise BenchError(
            "p%g over %d samples has only %d beyond it (need %d)" % (q * 100, n, beyond, min_beyond))
    return xs[rank - 1], n, beyond


def median(values):
    xs = sorted(values)
    n = len(xs)
    return xs[n // 2] if n % 2 else (xs[n // 2 - 1] + xs[n // 2]) / 2.0


def shuffled(rng, items):
    xs = list(items)
    rng.shuffle(xs)
    return xs


# --- the one-shot CLI ---------------------------------------------------------


class Spawner:
    """Runs one `nova` process and reports (wall s, exit code, stdout,
    stderr, max RSS in MB), timed from spawn to reaped exit."""

    def __init__(self, env):
        self.env = env
        self.err = open(os.path.join(ROOT, RUN_DIR, "child.stderr"), "w+b")

    def run(self, args):
        self.err.seek(0)
        self.err.truncate()
        t0 = time.perf_counter()
        p = subprocess.Popen([NOVA] + args, stdout=subprocess.PIPE, stderr=self.err, env=self.env)
        out = p.stdout.read()
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        self.err.seek(0)
        err = self.err.read()
        return wall, p.returncode, out.decode("utf-8", "replace"), err.decode("utf-8", "replace"), usage.ru_maxrss / 1024.0

    def close(self):
        self.err.close()


# --- the daemon ---------------------------------------------------------------


class Conn:
    """One persistent client connection speaking newline-delimited JSON."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.rfile = self.sock.makefile("rb")

    def call(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())
        line = self.rfile.readline()
        if not line:
            raise BenchError("daemon closed the connection")
        return json.loads(line)

    def close(self):
        self.rfile.close()
        self.sock.close()


class Daemon:
    def __init__(self, env, tag, cache_dir, max_inflight=1):
        self.sock_path = os.path.join(RUN_DIR, tag + ".sock")
        self.log = open(os.path.join(RUN_DIR, tag + ".log"), "wb")
        args = [NOVA, "serve", "--socket", self.sock_path, "--cache", cache_dir, "--quiet",
                "--max-inflight", str(max_inflight)]
        self.proc = subprocess.Popen(args, stdout=self.log, stderr=self.log, env=env)
        try:
            self.wait_ready()
        except BaseException:
            self.proc.kill()
            self.stop()
            raise

    def wait_ready(self):
        deadline = time.monotonic() + 60
        while True:
            if self.proc.poll() is not None:
                raise BenchError("daemon exited with code %d at start" % self.proc.returncode)
            try:
                c = Conn(self.sock_path)
                c.call({"verb": "ping"})
                c.close()
                return
            except (FileNotFoundError, ConnectionRefusedError):
                if time.monotonic() > deadline:
                    raise BenchError("daemon did not answer ping within 60 s")
                # A short nap: readiness is seen at most 0.1 ms late, a
                # small share of a set-up of a few ms, without spinning
                # on the core the daemon starts on.
                time.sleep(0.0001)

    def connect(self):
        return Conn(self.sock_path)

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def scrape(self):
        """(stats reply, Prometheus text) from the daemon's own verbs."""
        c = self.connect()
        try:
            return c.call({"verb": "stats"}), c.call({"verb": "metrics"})["payload"]
        finally:
            c.close()

    def stop(self):
        if self.proc.poll() is None:
            try:
                c = self.connect()
                c.call({"verb": "shutdown"})
                c.close()
            except (OSError, BenchError):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def prom_value(text, name, **labels):
    """The value of one Prometheus series, or None when absent."""
    want = ",".join('%s="%s"' % kv for kv in sorted(labels.items()))
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        key, _, val = line.rpartition(" ")
        series, _, rest = key.partition("{")
        got = ",".join(sorted(rest.rstrip("}").split(","))) if rest else ""
        if series == name and got == want:
            return float(val)
    return None


def encode_request(rid, machine, algorithm, text):
    return {"verb": "encode", "id": rid, "kiss2": text, "name": machine, "algorithm": algorithm}


# --- inputs -------------------------------------------------------------------


class Inputs:
    """The pool's KISS2 texts with states renamed by a prefix, written
    where a one-shot process can read them as <machine>.kiss2."""

    def __init__(self, prefix, subdir):
        self.prefix = prefix
        self.dir = fresh_dir(os.path.join(RUN_DIR, "in", subdir))
        self.text = {}
        self.kiss = {}
        for m in sorted({m for m, _ in POOL} | {WARMUP_MACHINE}):
            t = checker.rename_kiss2(machine_text(m), prefix)
            self.text[m] = t
            with open(self.path(m), "w") as f:
                f.write(t)

    def path(self, machine):
        return os.path.join(self.dir, machine + ".kiss2")

    def table(self, machine):
        if machine not in self.kiss:
            self.kiss[machine] = checker.Kiss2(self.text[machine])
        return self.kiss[machine]


def new_rng(seed, stream):
    return random.Random("%d/%s" % (seed, stream))
