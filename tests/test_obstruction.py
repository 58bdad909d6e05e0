from math import gcd

import pytest

from hkcert.instance import HKInstance, validate_instance
from hkcert.lattice import DELTA_INDEX
from hkcert.obstruction import max_a, proportionality_bound, wall_certificate, wall_pairs


def test_mbm_bound_examples(lam2):
    e1 = lam2.basis_vector(0)
    delta = lam2.basis_vector(DELTA_INDEX)

    def mbm_bound(W, C0):
        # the instance check: W primitive with 0 < -(W, W) < C0
        inst = HKInstance(n=2, pic_basis=(W, lam2.basis_vector(1)), W=W,
                          B=lam2.basis_vector(2), d=1, C0=C0)
        return {c.name: c.ok for c in validate_instance(inst)}["w_norm_bound"]

    assert mbm_bound(e1 + delta, 3)          # norm -2
    assert not mbm_bound(e1, 3)              # norm 0
    assert not mbm_bound(2 * delta, 100)     # not primitive
    assert not mbm_bound(e1 + delta, 2)      # bound not strict


def test_proportionality_examples():
    assert proportionality_bound(2) == [(1, 1)]
    assert proportionality_bound(5) == [(1, 1), (1, 2), (2, 1)]
    assert proportionality_bound(1) == []


def test_proportionality_oracle_up_to_100():
    for c0 in range(1, 101):
        got = proportionality_bound(c0)
        expect = []
        for a in range(1, c0):
            if a * a >= c0:
                continue
            for b in range(1, c0):
                if b * b >= c0:
                    continue
                if gcd(a, b) == 1:
                    expect.append((a, b))
        assert got == expect
        assert all(gcd(a, b) == 1 for a, b in got)


def test_wall_certificate_examples():
    w = wall_certificate(6, 1, 3)
    assert w.tested_a == ((1, 1),)
    assert w.verdict
    w = wall_certificate(3, 1, 2)
    assert w.tested_a == ((1, 1),)
    assert w.verdict


def test_wall_certificate_precondition():
    with pytest.raises(ValueError):
        wall_certificate(2, 1, 3)   # g <= C0*C1
    with pytest.raises(ValueError):
        wall_certificate(6, 0, 3)


def test_wall_pairs_refuse_at_the_call_and_enumerate_lazily():
    # verify compares a file's wall list with this iterator entry by entry,
    # so it refuses a forged triple before any pair is asked for, and holds
    # no list of the pairs
    for g, c1, c0 in ((2, 1, 3), (6, 0, 3), (0, 1, 1)):
        with pytest.raises(ValueError):
            wall_pairs(g, c1, c0)
    pairs = wall_pairs(10**21 + 1, 7, 10**20)
    assert iter(pairs) is pairs and max_a(10**20) == 10**10 - 1
    assert [next(pairs) for _ in range(3)] == [(1, 7), (2, 14), (3, 21)]
    assert tuple(wall_pairs(7, 2, 3)) == wall_certificate(7, 2, 3).tested_a == ((1, 2),)


def test_wall_always_true_under_precondition():
    # for every admissible triple with values <= 50, the verdict is true and
    # every tested remainder is the nonzero product a*C1 itself
    for g in range(1, 51):
        for c1 in range(1, 51):
            for c0 in range(1, 51):
                if g <= c0 * c1:
                    continue
                w = wall_certificate(g, c1, c0)
                assert w.verdict
                for a, r in w.tested_a:
                    assert r == a * c1
                    assert 0 < r < g
