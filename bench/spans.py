"""Span recorder and counters for the traced benchmark run.

Spans are recorded from the benchmark's side only: each one replaces, for
the duration of a traced pass, the module attribute that the *calling*
module looks up at call time (for example ``construction.isometry_between``,
the name ``run_pipeline`` resolves, rather than ``lattice.isometry_between``).
A span wraps one function; every call site listed for it must currently
resolve to that same function object, so a renamed or re-imported function
makes installation fail instead of silently going untraced.

Each span records its name, start, end, parent span and op id.  Spans stay
in memory and are written out once, at the end of the run.  A span's self
time is its duration minus the durations of its direct children (calls are
strictly nested, since nothing runs in parallel).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict

# Span name -> the attributes ("module.attr" or "module.Class.attr", relative
# to the hkcert package) that callers look up.  The name is the module that
# defines the function; the sites are where it is looked up.
SPANS = {
    "cli.cmd_construct": ["cli.cmd_construct"],
    "cli.cmd_verify": ["cli.cmd_verify"],
    "construction.run_pipeline": ["construction.run_pipeline"],
    "construction.find_A": ["construction.find_A"],
    "construction.find_omega": ["construction.find_omega"],
    "construction.find_D": ["construction.find_D"],
    "construction.choose_t": ["construction.choose_t"],
    "construction.degree_and_mukai": ["construction.degree_and_mukai"],
    "construction.transport": ["construction.transport"],
    "construction.pushforward_brauer": ["construction.pushforward_brauer"],
    "construction.wall_for_record": ["construction.wall_for_record"],
    "lattice.isometry_between": ["construction.isometry_between"],
    "lattice.Isometry": ["lattice.Isometry.__post_init__"],
    "lattice.acts_trivially_on_discriminant": [
        "certificate.acts_trivially_on_discriminant"
    ],
    "lattice.in_span_plus_lattice": ["instance.in_span_plus_lattice"],
    "snf.smith_normal_form": ["snf.smith_normal_form"],
    "snf.solve_integer": ["snf.solve_integer"],
    "snf.det_bareiss": ["snf.det_bareiss"],
    "snf.mat_mul": ["snf.mat_mul"],
    "instance.validate_instance": [
        "cli.validate_instance",
        "certificate.validate_instance",
    ],
    "instance.pic_coordinates": ["certificate.pic_coordinates"],
    "instance.brauer_equal": ["construction.brauer_equal", "certificate.brauer_equal"],
    "obstruction.wall_certificate": ["obstruction.wall_certificate"],
    "certificate.certificate_payload": ["certificate.certificate_payload"],
    "certificate.compute_digest": ["certificate.compute_digest"],
    "certificate.write_json": ["certificate.write_json"],
    "certificate.read_json": ["certificate.read_json"],
    "certificate.instance_from_payload": ["certificate.instance_from_payload"],
    "certificate.verify_payload": ["certificate.verify_payload"],
}

# Primitives that run thousands of times per op: counted, never spanned, so
# their time stays in the caller's self time instead of swamping it.
COUNTED = {
    "lattice.pair": [
        "lattice.pair",
        "construction.pair",
        "instance.pair",
        "certificate.pair",
    ],
    "lattice.divisibility": [
        "lattice.divisibility",
        "construction.divisibility",
        "certificate.divisibility",
    ],
}

# Spans recorded around the benchmark's own set-up calls, not installed.
SETUP_SPANS = ("instance.random_instance",)

# Deterministic effort counters, reported per op except where noted.
COUNTERS = (
    "construction.search.tuples_scanned",
    "construction.find_D.u_scanned",
    "construction.choose_t.t_scanned",
    "construction.transport.eps_attempts",
    "certificate.bytes",
)


def decimal_digits(x: int) -> int:
    """Exact decimal length of |x|, without int->str (which has a size limit)."""
    x = abs(x)
    d = max(0, int(x.bit_length() * 0.30102999566398120) - 1)
    while 10 ** (d + 1) <= x:
        d += 1
    return d + 1


def _resolve(site):
    mod_name, *path = site.split(".")
    owner = importlib.import_module(f"hkcert.{mod_name}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


class Tracer:
    """Records spans and counters while installed; restores everything on removal."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent_index, op_id]
        self.calls = Counter()
        self.counters = Counter()
        self.max_sigma_digits = 0
        self.search_hits = 0
        self.op = None
        self._stack = []
        self._saved = []

    # -- recording -------------------------------------------------------
    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def _count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_yields(self, name, gen_fn):
        counters = self.counters

        @functools.wraps(gen_fn)
        def counted(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counters[name] += 1
                yield item

        return counted

    # -- hooks on return values -----------------------------------------
    def _hit(self, result, args):
        self.search_hits += 1

    def _u(self, result, args):
        self.counters["construction.find_D.u_scanned"] += result[3]

    def _t(self, result, args):
        self.counters["construction.choose_t.t_scanned"] += result

    def _sigma(self, result, args):
        biggest = max(abs(x) for row in result.matrix for x in row)
        self.max_sigma_digits = max(self.max_sigma_digits, decimal_digits(biggest))

    def _bytes(self, result, args):
        self.counters["certificate.bytes"] += os.path.getsize(args[0])

    # -- installation ----------------------------------------------------
    def _patch(self, sites, make):
        targets = [_resolve(s) for s in sites]
        originals = {id(getattr(o, a)) for o, a in targets}
        if len(originals) != 1:
            raise RuntimeError(f"call sites {sites} resolve to different functions")
        original = getattr(*targets[0])
        replacement = make(original)
        for owner, attr in targets:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

    def install(self):
        hooks = {
            "construction.find_A": self._hit,
            "construction.find_omega": self._hit,
            "construction.find_D": self._u,
            "construction.choose_t": self._t,
            "lattice.isometry_between": self._sigma,
            "certificate.write_json": self._bytes,
        }
        try:
            for name, sites in SPANS.items():
                self._patch(sites, lambda fn, n=name: self.wrap(n, fn, hooks.get(n)))
            for name, sites in COUNTED.items():
                self._patch(sites, lambda fn, n=name: self._count(n, fn))
            self._patch(
                ["construction.graded_coefficient_tuples"],
                lambda fn: self._count_yields("construction.search.tuples_scanned", fn),
            )
        except Exception:
            self.uninstall()
            raise

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def span_totals(self, factor):
        """Per span name: (total self ns times factor, call count)."""
        child_ns = defaultdict(int)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns, calls = Counter(), Counter()
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            self_ns[name] += (end - start - child_ns[i]) * factor
            calls[name] += 1
        return self_ns, calls

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "op": op},
                        separators=(",", ":"),
                    )
                )
                fh.write("\n")
