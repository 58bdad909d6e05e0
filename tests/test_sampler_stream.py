"""A stream golden for the seeded instance sampler.

``random_instance`` feeds the benchmark, the property suites and
``hkcert random``, so two things about it are pinned per cell here: the
sha256 of the instance payload it returns, and the sha256 of every call it
makes on its ``random.Random`` (method, arguments and result, in order).
A faster sampler must draw the same stream and return the same instance.
Each returned instance must also pass every check of ``validate_instance``:
the sampler decides each sample by its own rejections and does not run it.

The cells are every (n, rho, C0, d_max) of the benchmark's ``mixed`` grid,
the same grid at rho = 4, and d_max in {10^40, 10^200}.  A cell whose draw
ends in ``SearchExhausted`` records that instead of a payload digest.

``golden_sampler.json`` was recorded once and must not be regenerated to
make this test pass.  After a deliberate change of the sampler, rewrite it
with

    PYTHONPATH=src python tests/test_sampler_stream.py
"""

import hashlib
import json
import random
import types
from itertools import product
from pathlib import Path

import pytest

from hkcert import instance, sampler
from hkcert.certificate import instance_to_payload
from hkcert.errors import SearchExhausted

GOLDEN = Path(__file__).with_name("golden_sampler.json")

MIXED_GRID = list(product((2, 3, 4, 5), (2, 3), (3, 4, 5, 6), (1, 2, 3, 4)))
RANK4_GRID = list(product((2, 3, 4, 5), (4,), (3, 4, 5, 6), (1, 2, 3, 4)))
BIG_D_GRID = list(product((2, 4, 6), (2, 3, 4), (3, 6), (10**40, 10**200)))
CELLS = [
    (cell, 7000 + i) for i, cell in enumerate(MIXED_GRID + RANK4_GRID + BIG_D_GRID)
]


class LoggingRandom(random.Random):
    """random.Random that logs each call made on it from outside, in order.

    Every method that draws ends in ``random`` or ``getrandbits``, so a draw
    through a method not listed here is logged too, as one of those two.
    """

    def __init__(self, seed):
        self.log = []
        self._depth = 0
        super().__init__(seed)


def _logged(name):
    method = getattr(random.Random, name)

    def call(self, *args, **kwargs):
        self._depth += 1
        try:
            result = method(self, *args, **kwargs)
        finally:
            self._depth -= 1
        if not self._depth:
            self.log.append((name, args, sorted(kwargs.items()), result))
        return result

    return call


for _name in ("randint", "randrange", "sample", "choice", "shuffle", "random", "getrandbits"):
    setattr(LoggingRandom, _name, _logged(_name))


def _sha(obj):
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _key(cell, seed):
    n, rho, C0, d_max = cell
    return f"{n},{rho},{C0},{d_max if d_max < 10**6 else f'1e{len(str(d_max)) - 1}'},{seed}"


def draw(cell, seed):
    """(payload digest or "SearchExhausted", digest of the rng call log)."""
    rngs = []

    def make(seed):
        rngs.append(LoggingRandom(seed))
        return rngs[-1]

    saved = sampler.random
    sampler.random = types.SimpleNamespace(Random=make)
    try:
        try:
            inst = instance.random_instance(*cell, seed)
        except SearchExhausted:
            out = "SearchExhausted"
        else:
            # the sampler decides each sample once and does not re-validate
            # it, so every instance it returns is checked here
            assert [c.name for c in instance.validate_instance(inst) if not c.ok] == []
            out = _sha(instance_to_payload(inst))
    finally:
        sampler.random = saved
    assert len(rngs) == 1
    return out, _sha(rngs[0].log)


def record():
    return {_key(cell, seed): list(draw(cell, seed)) for cell, seed in CELLS}


@pytest.mark.parametrize(
    "grid", ["mixed", "rank4", "big_d"],
)
def test_sampler_stream_matches_golden(grid):
    golden = json.loads(GOLDEN.read_text())
    lo, hi = {
        "mixed": (0, len(MIXED_GRID)),
        "rank4": (len(MIXED_GRID), len(MIXED_GRID) + len(RANK4_GRID)),
        "big_d": (len(MIXED_GRID) + len(RANK4_GRID), len(CELLS)),
    }[grid]
    for cell, seed in CELLS[lo:hi]:
        key = _key(cell, seed)
        assert list(draw(cell, seed)) == golden[key], key


def test_sampler_golden_covers_every_cell():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(_key(cell, seed) for cell, seed in CELLS)
    # the golden must pin instances, not only exhausted searches
    assert sum(out != "SearchExhausted" for out, _ in golden.values()) > len(CELLS) // 2


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
