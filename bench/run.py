"""hkcert benchmark: construct/verify latency and throughput, in-process and
through the CLI, on three workloads; a traced run adds per-layer metrics.

    python3 bench/run.py --workload mixed --seed 1 --seconds 12 --trace 0

Run from anywhere inside a checkout; the program is imported from ``src/``
next to this directory.  Every output line but the last is for people; the
last line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  The exit code is 0 only when every certificate reproduces
its golden digest, every verify says OK, and (traced) every span fired and
every deterministic counter repeated.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from itertools import product
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"

SETUP_ROUNDS = 5  # set-up is repeated this many times per run; setup_s is the median
ROUNDS = 5  # ops run in this many rounds
VERIFY_REPEATS = 3  # in-process verifies of each certificate in a row; its latency is their median
CLI_VERIFIES_PER_ROUND = 3  # `hkcert verify` processes over the CLI certificates, per round
SUBPROCESS_TIMEOUT_S = 120
TAIL_BEYOND = 10  # the tail is the highest percentile with this many successes beyond it
REPEAT_CHECK_INSTANCES = 6  # the traced run counts this many instances twice and compares
GAUGE_INTERVAL_S = 0.15  # longest time between two readings of the speed gauge
NOMINAL_REFERENCE_MS = 7.0  # the gauge's reference work at the speed times are reported at
NOMINAL_BIGINT_REFERENCE_MS = 8.6  # the same for the big-integer reference work of bigint
NOMINAL_START_MS = 16.0  # the same for the bare interpreter start that CLI ops are scaled by
CHILD_GAUGE_GAP_S = 0.05  # a CLI child later than this after the last start reading takes a new one


# ---------------------------------------------------------------------------
# workloads

MIXED_GRID = list(product((2, 3, 4, 5), (2, 3), (3, 4, 5, 6), (1, 2, 3, 4)))
BIGINT_STRATA = [(lo, lo + 9) for lo in range(10, 240, 10)] + [(240, 250)]


def _mixed_params(name, i):
    # The acceptance-suite grid (n, pic_rank, C0, d_max), each block of 128
    # consecutive instances covering it once in a shuffled order.
    block = random.Random(f"{name}:grid:{i // len(MIXED_GRID)}").sample(
        MIXED_GRID, len(MIXED_GRID)
    )
    return block[i % len(MIXED_GRID)]


def _bigint_params(name, i):
    # d_max = 10^k with k uniform on 10..250, stratified: each block of 24
    # instances draws one k from each decade.
    block = random.Random(f"{name}:strata:{i // len(BIGINT_STRATA)}").sample(
        BIGINT_STRATA, len(BIGINT_STRATA)
    )
    lo, hi = block[i % len(BIGINT_STRATA)]
    rng = random.Random(f"{name}:params:{i}")
    k = rng.randint(lo, hi)
    return (rng.randint(2, 6), rng.choice((2, 3)), rng.randint(3, 6), 10**k)


@dataclass(frozen=True)
class Workload:
    name: str
    params: object  # (name, index) -> (n, pic_rank, C0, d_max)
    instances_per_s: float  # corpus size per second of --seconds
    repeats: int  # in-process ops per instance; its latency is their median
    cli_instances: "int | None"  # the first this many instances go through the CLI; None: all
    cli_per_s: float  # `hkcert construct` processes per second of --seconds
    bigint_gauge: bool = False  # in-process ops are also scaled by big-integer work

    def sizes(self, seconds):
        """(corpus size, CLI instances, CLI construct processes)."""
        n = max(ROUNDS, round(seconds * self.instances_per_s))
        k = n if self.cli_instances is None else min(n, self.cli_instances)
        return n, k, max(k, round(seconds * self.cli_per_s))


# Sizes are set so that a 12-second run, set-up included, takes 25-45 s on a
# 2-core x86 box with CPython 3.11; the work depends only on --seconds, never
# on the clock, so two runs of one seed do the same work.  cli repeats each
# in-process op because it has few instances; mixed does because a burst of
# machine load over a few seconds moved its tails by up to 2x when each
# instance ran once.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mixed", _mixed_params, 7.0, 3, 1, 0.84),
        Workload("bigint", _bigint_params, 11.5, 1, 1, 0.84, bigint_gauge=True),
        Workload("cli", _mixed_params, 3.0, 3, None, 3.0),
    )
}

E2E_UNITS = {
    "setup_s": "s",
    "construct_ms_p50": "ms",
    "construct_ms_tail": "ms",
    "construct_per_s": "1/s",
    "verify_ms_p50": "ms",
    "verify_ms_tail": "ms",
    "verify_per_s": "1/s",
    "cli_construct_ms_p50": "ms",
    "cli_construct_ms_tail": "ms",
    "cli_verify_ms_per_cert": "ms",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# program under test

def import_program():
    """Import hkcert from this checkout's src/ only; exit nonzero if it is missing."""
    if not (SRC / "hkcert" / "__init__.py").is_file():
        sys.exit(f"error: no program at {SRC / 'hkcert'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import hkcert
    import hkcert.certificate
    import hkcert.cli
    import hkcert.instance
    import hkcert.lattice

    if Path(hkcert.__file__).resolve().parent != (SRC / "hkcert").resolve():
        sys.exit(f"error: imported hkcert from {hkcert.__file__}, not {SRC}")
    return hkcert


def reset_caches():
    """Empty every lru_cache in the package, as in a fresh process."""
    for name, mod in list(sys.modules.items()):
        if name == "hkcert" or name.startswith("hkcert."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def warm(hk):
    """Lazy set-up every op would otherwise pay once per process."""
    for n in range(2, 7):
        hk.lattice.discriminant_group(hk.lattice.build_lambda(n))


# ---------------------------------------------------------------------------
# measurement helpers

def reference_work():
    """Fixed pure-Python integer work, independent of hkcert: products of
    24x24 integer matrices and gcds of their rows, the kind of arithmetic
    the program does."""
    a = [[(i * 31 + j * 17) % 97 - 48 for j in range(24)] for i in range(24)]
    acc = 0
    for _ in range(3):
        out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)] for row in a]
        for row in out:
            g = 0
            for v in row:
                g = math.gcd(g, v)
            acc += g
        a = [[v % 1009 - 504 for v in row] for row in out]
    return acc


def bigint_reference_work():
    """Fixed pure-Python work on 300-digit integers, independent of hkcert:
    products, exact quotients and gcds, the arithmetic of Bareiss
    elimination on big entries."""
    x, y, acc = 3**600 + 12345, 7**350 + 999, 0
    for i in range(400):
        p = x * (y + i)
        acc ^= math.gcd(p, x + i) & 0xFFFF
        acc += (p // (y + i)) & 1
        x = (x * 1103515245 + 12345) % 10**320
    return acc


def start_reference_work():
    """Start a bare interpreter, without site or hkcert, and wait for it to
    end: the process start-up that every CLI op pays."""
    code = run_child([sys.executable, "-S", "-c", "pass"])[1]
    if code != 0:
        raise RuntimeError(f"bare interpreter start: exit {code}")


class Gauge:
    """Machine-speed gauge, read between ops.

    The speed of a shared box switches between states that last from a
    second to minutes, up to 1.8x apart.  So every interval is reported at
    the reference speed: it is multiplied by the nominal reference time over
    the mean of the readings taken just before and just after it.  So an op
    is scaled by the speed it met, not by the run's average speed.

    Each kind of work slows by its own share when the box slows, so a run
    scales each kind of op by gauges that time work like its own (see
    ``Run.inprocess_ms`` and ``Run.cli_ms``).
    """

    def __init__(self, work, nominal, runs=2):
        self.work = work
        self.nominal = nominal
        self.runs = runs
        self.readings = []  # (time, reference ms), in time order
        self.read()

    def read(self):
        """One reading: the fastest of `runs` reference runs, as a single run
        is sometimes stalled several-fold.  The garbage collector is off while
        it runs, so the program's heap cannot change the reading."""
        runs = []
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(self.runs):
                t0 = time.perf_counter()
                self.work()
                t1 = time.perf_counter()
                runs.append(((t0 + t1) / 2, (t1 - t0) * 1000.0))
        finally:
            if collecting:
                gc.enable()
        self.readings.append(min(runs, key=lambda r: r[1]))

    def tick(self):
        if time.perf_counter() - self.readings[-1][0] >= GAUGE_INTERVAL_S:
            self.read()

    def factor(self):
        """One factor for a whole run: nominal over the median reading."""
        return self.nominal / statistics.median(ms for _, ms in self.readings)

    def ms(self, interval):
        """The interval in ms at the reference speed, scaled by the readings
        from the last one before it to the first one after it."""
        t0, t1 = interval
        times = [t for t, _ in self.readings]
        lo = max(0, bisect.bisect_right(times, t0) - 1)
        hi = max(lo + 1, bisect.bisect_left(times, t1) + 1)
        near = [ms for _, ms in self.readings[lo:hi]]
        return (t1 - t0) * 1000.0 * self.nominal / statistics.fmean(near)


def tail_percentile(n_samples, n_ok):
    """Highest whole percentile with TAIL_BEYOND successes ranked beyond it.
    Failures rank after every success, so they push it down but are never
    the tail themselves: they have no time."""
    best = 50
    for p in range(50, 100):
        rank = max(1, math.ceil(p * n_samples / 100))
        if n_ok - rank >= TAIL_BEYOND:
            best = p
    return best


def latency_summary(samples):
    """samples: [(ms, ok)].  Percentiles rank every failure after every success."""
    ok = sorted(ms for ms, good in samples if good)
    n = len(samples)
    tail_p = tail_percentile(n, len(ok))

    def at(p):
        rank = max(1, math.ceil(p * n / 100))
        return ok[rank - 1] if rank <= len(ok) else math.inf

    return {
        "p50": at(50),
        "tail": at(tail_p),
        "tail_percentile": tail_p,
        "samples": n,
        "successes": len(ok),
        "per_s": len(ok) / (sum(ms for ms, _ in samples) / 1000.0),
    }


def run_child(argv, cwd=None):
    """Run one child to completion; returns ((start, end), exit code, stdout).

    The wait blocks until the child ends: a wait with a timeout polls, with
    sleeps of up to 50 ms, which would add up to 50 ms to a time.  A timer
    kills a child that outlives SUBPROCESS_TIMEOUT_S instead."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        argv, cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        timer = threading.Timer(SUBPROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out, _ = proc.communicate()
        finally:
            timer.cancel()
    return (t0, time.perf_counter()), proc.returncode, out


def read_digest(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["digest"]


# ---------------------------------------------------------------------------
# the run

class Run:
    def __init__(self, hk, workload, seed, seconds, work, golden):
        self.hk = hk
        self.w = workload
        self.seed = seed
        self.n, self.n_cli, self.cli_ops = workload.sizes(seconds)
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems = []  # correctness violations: any makes the run fail
        self.failures = {}  # failed op kind -> count
        self.golden = golden  # golden digest per instance, None where construct fails
        self.digests = [None] * self.n  # in-process digest per instance
        self.gauge = Gauge(reference_work, NOMINAL_REFERENCE_MS)
        self.big_gauge = (Gauge(bigint_reference_work, NOMINAL_BIGINT_REFERENCE_MS)
                          if workload.bigint_gauge else None)
        self.start_gauge = Gauge(start_reference_work, NOMINAL_START_MS, runs=1)

    # -- speed gauges ------------------------------------------------------
    def in_process_gauges(self):
        return [g for g in (self.gauge, self.big_gauge) if g is not None]

    def tick(self):
        for g in self.in_process_gauges():
            g.tick()

    def inprocess_ms(self, interval):
        """An in-process interval at the reference speed: scaled by the
        small-integer gauge, or on ``bigint`` by the geometric mean of the
        small- and big-integer gauges, as its ops do both kinds of work."""
        scaled = [g.ms(interval) for g in self.in_process_gauges()]
        return math.prod(scaled) ** (1.0 / len(scaled))

    def cli_ms(self, interval):
        """A CLI child's interval at the reference speed: scaled by the
        geometric mean of the interpreter-start and small-integer gauges, as
        a child both starts an interpreter and imports, and runs Python."""
        return math.sqrt(self.start_gauge.ms(interval) * self.gauge.ms(interval))

    def inprocess_factor(self):
        """One factor for the whole run, for the traced run's span times."""
        factors = [g.factor() for g in self.in_process_gauges()]
        return math.prod(factors) ** (1.0 / len(factors))

    # -- set-up ------------------------------------------------------------
    def inst_path(self, i):
        return self.work / f"instance_{i:04d}.json"

    def cert_path(self, i, kind="inproc"):
        return self.work / f"{kind}_{i:04d}.json"

    def generate(self, i, random_instance):
        params = self.w.params(self.w.name, i)
        for attempt in range(20):
            sub_seed = random.Random(f"{self.w.name}:seed:{i}:{attempt}").randrange(2**31)
            try:
                inst = random_instance(*params, sub_seed)
            except self.hk.errors.SearchExhausted:
                continue
            self.hk.certificate.write_json(
                self.inst_path(i), self.hk.certificate.instance_to_payload(inst)
            )
            return
        raise RuntimeError(f"instance {i}: generation exhausted 20 sub-seeds")

    def timed(self, fn, *args):
        """Run fn(*args), then read the gauge if due; returns fn's interval."""
        t0 = time.perf_counter()
        fn(*args)
        interval = (t0, time.perf_counter())
        self.tick()
        return interval

    def setup(self, random_instance):
        """Generate and write the corpus in SETUP_ROUNDS rounds, each from
        empty program caches and ending warm; returns each round's intervals."""
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        bounds = [self.n * r // SETUP_ROUNDS for r in range(SETUP_ROUNDS + 1)]
        rounds = []
        for lo, hi in zip(bounds, bounds[1:]):
            pieces = [self.timed(reset_caches)]
            pieces += [self.timed(self.generate, i, random_instance) for i in range(lo, hi)]
            pieces.append(self.timed(warm, self.hk))
            rounds.append(pieces)
        return rounds

    def order(self):
        order = list(range(self.n))
        random.Random(f"{self.w.name}:order:{self.seed}").shuffle(order)
        return order

    def rounds(self):
        """Instances per round.  The seeded run order is cut into ROUNDS
        chunks; round j takes chunk j and the `repeats - 1` chunks before it,
        so each instance runs `repeats` times, each time in another round."""
        order = self.order()
        chunks = [order[j * self.n // ROUNDS:(j + 1) * self.n // ROUNDS] for j in range(ROUNDS)]
        return [
            [i for back in range(self.w.repeats) for i in chunks[(j - back) % ROUNDS]]
            for j in range(ROUNDS)
        ]

    def fresh_process_state(self):
        reset_caches()
        warm(self.hk)

    # -- bookkeeping -------------------------------------------------------
    def op(self, ok, kind=None):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[kind] = self.failures.get(kind, 0) + 1

    def certified(self, i, digest, where):
        """Check a new certificate's digest against golden and earlier runs."""
        want = self.golden[i] if i < len(self.golden) else None
        if want is not None and digest != want:
            self.problems.append(f"instance {i}: {where} digest {digest} != golden {want}")
            return False
        if self.digests[i] is not None and digest != self.digests[i]:
            self.problems.append(f"instance {i}: {where} digest {digest} != {self.digests[i]}")
            return False
        self.digests[i] = digest
        return True

    def uncertified(self, i, kind):
        """A construct failed: a correctness problem if it ever succeeded."""
        if self.digests[i] is not None or (i < len(self.golden) and self.golden[i] is not None):
            self.problems.append(f"instance {i}: certified before, now {kind}")

    # -- in-process ops ----------------------------------------------------
    def inprocess(self, chunk, tracer=None, verify_repeats=1):
        """cmd_construct for every instance of the chunk, then cmd_verify
        `verify_repeats` times in a row for every certificate made.  Returns
        [(instance, (interval, ok))] for each kind."""
        cli = self.hk.cli
        constructs, verifies, made = [], [], []
        for i in chunk:
            if tracer is not None:
                tracer.op = f"construct:{i}"
            t0 = time.perf_counter()
            try:
                code = cli.cmd_construct(
                    str(self.inst_path(i)), str(self.cert_path(i)), out=io.StringIO()
                )
                kind = None if code == 0 else f"construct exit {code}"
            except Exception as exc:  # an uncaught program error is a failed op
                kind = f"construct {type(exc).__name__}: {str(exc)[:60]}"
            interval = (t0, time.perf_counter())
            self.tick()
            if kind is None and not self.certified(i, read_digest(self.cert_path(i)), "in-process"):
                kind = "digest mismatch"
            elif kind is not None:
                self.uncertified(i, kind)
            constructs.append((i, (interval, kind is None)))
            self.op(kind is None, kind)
            if kind is None:
                made.append(i)
        for i in (i for i in made for _ in range(verify_repeats)):
            if tracer is not None:
                tracer.op = f"verify:{i}"
            sink = io.StringIO()
            t0 = time.perf_counter()
            try:
                code = cli.cmd_verify([str(self.cert_path(i))], out=sink)
                kind = None if code == 0 and sink.getvalue().rstrip().endswith("checks)") \
                    else f"verify exit {code}"
            except Exception as exc:
                kind = f"verify {type(exc).__name__}"
            interval = (t0, time.perf_counter())
            self.tick()
            if kind is not None:
                self.problems.append(f"instance {i}: {kind}: {sink.getvalue().strip()[:200]}")
            verifies.append((i, (interval, kind is None)))
            self.op(kind is None, kind)
        if tracer is not None:
            tracer.op = None
        return constructs, verifies

    # -- CLI ops -----------------------------------------------------------
    def child(self, argv):
        """run_child with start-gauge readings right before and right after
        it; back-to-back children share the reading between them."""
        if time.perf_counter() - self.start_gauge.readings[-1][0] > CHILD_GAUGE_GAP_S:
            self.start_gauge.read()
        result = run_child(argv, self.work)
        self.start_gauge.read()
        self.tick()
        return result

    def cli_construct(self, i):
        """One `hkcert construct` process; returns an (interval, ok) sample."""
        out = self.cert_path(i, "cli")
        interval, code, _ = self.child(
            [sys.executable, "-m", "hkcert", "construct",
             "-i", str(self.inst_path(i)), "-o", str(out)]
        )
        kind = None if code == 0 else f"cli construct exit {code}"
        if kind is None and not self.certified(i, read_digest(out), "CLI"):
            kind = "digest mismatch"
        elif kind is not None:
            self.uncertified(i, kind)
        self.op(kind is None, kind)
        return interval, kind is None

    def reference(self):
        """Untimed in-process construct of every CLI instance, before any op:
        the certificates each `hkcert verify` reads, and the digests each
        `hkcert construct` must reproduce."""
        for i in range(self.n_cli):
            try:
                code = self.hk.cli.cmd_construct(
                    str(self.inst_path(i)), str(self.cert_path(i, "ref")), out=io.StringIO()
                )
            except Exception as exc:
                code = type(exc).__name__
            if code == 0:
                self.certified(i, read_digest(self.cert_path(i, "ref")), "reference")
            else:
                self.uncertified(i, f"reference construct {code}")

    def cli_verify(self):
        """One `hkcert verify` process over the reference certificates;
        returns (its interval, the number of certificates)."""
        certs = [str(self.cert_path(i, "ref")) for i in range(self.n_cli) if self.digests[i]]
        interval, code, out = self.child([sys.executable, "-m", "hkcert", "verify", *certs])
        good = sum(1 for line in out.splitlines() if line.endswith("checks)"))
        if code != 0 or good != len(certs):
            self.problems.append(f"cli verify exit {code}, {good}/{len(certs)} OK")
        for k in range(len(certs)):
            self.op(code == 0 and k < good, "cli verify")
        return interval, max(1, len(certs))

    def child_ms(self, argv):
        return self.cli_ms(self.child(argv)[0])

    def start_and_import_ms(self, repeats=5):
        py = sys.executable
        start = statistics.median(self.child_ms([py, "-c", "pass"]) for _ in range(repeats))
        imp = statistics.median(
            self.child_ms([py, "-c", "import hkcert.cli"]) for _ in range(repeats)
        )
        return start, imp - start


def environment(run, args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "workload": run.w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instances": run.n,
        "cli_instances": run.n_cli,
    }


def per_instance(ms, samples):
    """{instance: [(interval, ok), ...]} -> one (median ms, all ok) sample each."""
    return [
        (statistics.median(ms(iv) for iv, _ in reps), all(ok for _, ok in reps))
        for reps in samples.values()
    ]


def end_to_end(run, args, detail):
    """Set-up, then ROUNDS rounds.  Each round starts from empty, re-warmed
    caches and runs in-process construct then verify on its instances, a
    share of the `hkcert construct` processes, and CLI_VERIFIES_PER_ROUND
    `hkcert verify` processes over the CLI instances.  Rounds spread every
    kind of op over the whole run, so a burst of machine noise cannot land
    on one kind only."""
    setup_rounds = run.setup(run.hk.instance.random_instance)
    run_child([sys.executable, "-c", "import hkcert.cli"], run.work)  # write the bytecode cache
    run.reference()
    constructs, verifies = defaultdict(list), defaultdict(list)
    cli_constructs, cli_verify = [], []
    cli_schedule = [m % run.n_cli for m in range(run.cli_ops)]
    for j, instances in enumerate(run.rounds()):
        run.fresh_process_state()
        c, v = run.inprocess(instances, verify_repeats=VERIFY_REPEATS)
        for i, sample in c:
            constructs[i].append(sample)
        for i, sample in v:
            verifies[i].append(sample)
        share = cli_schedule[j * run.cli_ops // ROUNDS:(j + 1) * run.cli_ops // ROUNDS]
        cli_constructs += [run.cli_construct(i) for i in share]
        cli_verify += [run.cli_verify() for _ in range(CLI_VERIFIES_PER_ROUND)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for g in run.in_process_gauges():
        g.read()

    def metrics(ms, cli_ms):
        c = latency_summary(per_instance(ms, constructs))
        v = latency_summary(per_instance(ms, verifies))
        cc = latency_summary([(cli_ms(iv), ok) for iv, ok in cli_constructs])
        setup = [sum(ms(iv) for iv in pieces) / 1000.0 for pieces in setup_rounds]
        values = {
            "setup_s": statistics.median(setup),
            "construct_ms_p50": c["p50"],
            "construct_ms_tail": c["tail"],
            "construct_per_s": c["per_s"],
            "verify_ms_p50": v["p50"],
            "verify_ms_tail": v["tail"],
            "verify_per_s": v["per_s"],
            "cli_construct_ms_p50": cc["p50"],
            "cli_construct_ms_tail": cc["tail"],
            "cli_verify_ms_per_cert": statistics.median(cli_ms(iv) / k for iv, k in cli_verify),
            "peak_rss_mb": rss_mb,
        }
        counts = {
            name: {k: x[k] for k in ("samples", "successes", "tail_percentile")}
            for name, x in (("construct", c), ("verify", v), ("cli_construct", cc))
        }
        return values, counts, setup

    def unscaled(iv):
        return (iv[1] - iv[0]) * 1000.0

    values, counts, setup = metrics(run.inprocess_ms, run.cli_ms)
    detail["unscaled"] = metrics(unscaled, unscaled)[0]
    detail["setup_rounds_s"] = setup
    gauge_detail(run, detail)
    detail["samples"] = dict(
        counts, cli_verify_runs=len(cli_verify), repeats_per_instance=run.w.repeats,
        verifies_in_a_row=VERIFY_REPEATS,
    )
    return values


def gauge_detail(run, detail):
    detail["reference_ms"] = reference_summary(run.gauge)
    detail["start_reference_ms"] = reference_summary(run.start_gauge)
    if run.big_gauge is not None:
        detail["bigint_reference_ms"] = reference_summary(run.big_gauge)


def reference_summary(gauge):
    refs = [ms for _, ms in gauge.readings]
    return {"readings": len(refs), "median": statistics.median(refs),
            "min": min(refs), "max": max(refs), "nominal": gauge.nominal}


def per_layer(run, args, detail):
    import spans as tr

    tracer = tr.Tracer()
    setup_tracer = tr.Tracer()
    run.setup(setup_tracer.wrap("instance.random_instance", run.hk.instance.random_instance))
    # Each chunk of the run order runs untraced, then traced, each time from
    # emptied and re-warmed caches.  Alternating keeps machine drift out of
    # the tracing overhead: both passes of a chunk meet the same speed.
    order = run.order()
    constructs, verifies = [], []
    untraced_s = traced_s = 0.0
    for j in range(ROUNDS):
        chunk = order[j * run.n // ROUNDS:(j + 1) * run.n // ROUNDS]
        run.fresh_process_state()
        c, v = run.inprocess(chunk)
        untraced_s += sum(t1 - t0 for _, ((t0, t1), _) in c + v)
        run.fresh_process_state()
        tracer.install()
        try:
            c, v = run.inprocess(chunk, tracer)
        finally:
            tracer.uninstall()
        traced_s += sum(t1 - t0 for _, ((t0, t1), _) in c + v)
        constructs += c
        verifies += v
    per = len(constructs)  # per-layer values are per instance: its construct and its verify
    start_ms, import_ms = run.start_and_import_ms()
    for g in run.in_process_gauges():
        g.read()

    factor = run.inprocess_factor()
    self_ns, calls = tracer.span_totals(factor)
    setup_ns, setup_calls = setup_tracer.span_totals(factor)
    self_ns.update(setup_ns)
    calls.update(setup_calls)
    calls.update(tracer.calls)
    metrics = {}
    for name in [*tr.SPANS, *tr.SETUP_SPANS]:
        metrics[f"{name}.self_ms"] = (self_ns[name] / 1e6 / per, "ms")
        metrics[f"{name}.calls"] = (calls[name] / per, "count")
    for name in tr.COUNTED:
        metrics[f"{name}.calls"] = (calls[name] / per, "count")
    counters = dict(tracer.counters)
    counters["construction.transport.eps_attempts"] = calls["lattice.isometry_between"]
    for name in tr.COUNTERS:
        unit = "bytes" if name == "certificate.bytes" else "count"
        metrics[name] = (counters.get(name, 0) / per, unit)
    tuples = counters.get("construction.search.tuples_scanned", 0)
    metrics["construction.search.hit_ratio"] = (tracer.search_hits / max(1, tuples), "ratio")
    metrics["lattice.sigma.max_digits"] = (tracer.max_sigma_digits, "digits")
    metrics["cli.interpreter_start_ms"] = (start_ms, "ms")
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["bench.tracing_overhead_share"] = (traced_s / untraced_s - 1.0, "ratio")
    metrics["bench.failed_share"] = (run.failed / run.attempted, "ratio")

    silent = [n for n in [*tr.SPANS, *tr.SETUP_SPANS, *tr.COUNTED] if calls[n] == 0]
    if silent:
        run.problems.append(f"spans that never fired: {silent}")
    repeat_within_run(run, tr)
    record = check_repeat(run, {
        k: v for k, (v, unit) in metrics.items()
        if unit in ("count", "bytes", "digits") or k == "bench.failed_share"
        or k == "construction.search.hit_ratio"
    })
    detail["counter_record"] = str(record.relative_to(ROOT))
    spans_path = OUT / f"spans-{run.w.name}-{args.seed}.jsonl"
    tracer.write(spans_path)
    detail["spans_file"] = str(spans_path.relative_to(ROOT))
    detail["spans"] = len(tracer.spans)
    detail["samples"] = {"construct": len(constructs), "verify": len(verifies)}
    gauge_detail(run, detail)
    return {k: v for k, (v, unit) in metrics.items()}, {k: u for k, (v, u) in metrics.items()}


def effort(tracer):
    """A tracer's deterministic counts: calls of every span and primitive,
    the effort counters, search hits and the largest sigma entry."""
    calls = tracer.span_totals(1.0)[1]
    calls.update(tracer.calls)
    return {**calls, **tracer.counters, "search_hits": tracer.search_hits,
            "max_sigma_digits": tracer.max_sigma_digits}


def repeat_within_run(run, tr):
    """Count the first REPEAT_CHECK_INSTANCES instances of the run order
    twice, each time from empty caches, and compare."""
    chunk = run.order()[:REPEAT_CHECK_INSTANCES]
    counts = []
    for _ in range(2):
        run.fresh_process_state()
        tracer = tr.Tracer()
        tracer.install()
        try:
            run.inprocess(chunk, tracer)
        finally:
            tracer.uninstall()
        counts.append(effort(tracer))
    changed = sorted(k for k in counts[0].keys() | counts[1].keys()
                     if counts[0].get(k) != counts[1].get(k))
    if changed:
        run.problems.append(f"deterministic counters differ between two passes: {changed}")


def code_digest():
    """sha256 of the program's sources, the benchmark's and the Python version."""
    h = hashlib.sha256(platform.python_version().encode())
    for path in sorted(SRC.rglob("*.py")) + [BENCH / "run.py", BENCH / "spans.py"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_repeat(run, counters):
    """Deterministic counters must repeat exactly across runs of one code,
    workload, corpus and seed: the first correct traced run of them in a
    checkout records the counters, later ones compare."""
    key = f"{run.w.name}-n{run.n}-seed{run.seed}-{code_digest()}"
    path = OUT / "records" / f"{key}.json"
    if path.is_file():
        before = json.loads(path.read_text())
        changed = sorted(k for k in before.keys() | counters.keys()
                         if before.get(k) != counters.get(k))
        if changed:
            run.problems.append(f"deterministic counters changed since an earlier run: {changed}")
    elif not run.problems:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counters, indent=1, sort_keys=True))
    return path


def load_golden(workload):
    """The workload's golden digests; exit nonzero if there are none."""
    if not GOLDEN.is_file():
        sys.exit(f"error: no golden digests at {GOLDEN}")
    digests = json.loads(GOLDEN.read_text()).get(workload)
    if not digests:
        sys.exit(f"error: {GOLDEN.name} has no digests for workload {workload}")
    return digests


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for the benchmark and its children, so the speed gauge reads the
    # CPU every timed op runs on; the two CPUs of a shared box drift apart.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    hk = import_program()
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    run = Run(hk, WORKLOADS[args.workload], args.seed, args.seconds, work,
              load_golden(args.workload))
    if len(run.golden) < run.n:
        sys.exit(f"error: {GOLDEN.name} has digests for {len(run.golden)} {args.workload} "
                 f"instances, the run needs {run.n}; re-record with make_golden.py")
    detail = {"environment": environment(run, args)}
    try:
        if args.trace:
            values, units = per_layer(run, args, detail)
        else:
            values, units = end_to_end(run, args, detail), E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail["failed_share"] = run.failed / run.attempted
    detail["failures"] = run.failures
    detail["golden_instances_checked"] = run.n
    detail["problems"] = run.problems
    for name, value in values.items():
        print(f"{run.w.name:>12} {name:<48} {value:>14.6g} {units[name]}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
