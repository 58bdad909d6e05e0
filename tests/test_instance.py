import random

import pytest

from hkcert.errors import SearchExhausted
from hkcert.instance import (
    BrauerClass,
    HKInstance,
    b_field_class,
    brauer_equal,
    instance_is_valid,
    normalize_brauer,
    pic_coordinates,
    random_instance,
    validate_instance,
)
from hkcert.lattice import RationalClass, norm, pair


def failing(inst):
    return [c.name for c in validate_instance(inst) if not c.ok]


def test_e2_all_pass(e2_instance):
    assert failing(e2_instance) == []


def test_w_not_primitive(e2_instance):
    bad = e2_instance.replace(W=2 * e2_instance.W)
    assert "w_primitive" in failing(bad)


def test_b_not_orthogonal(e2_instance, lam2):
    bad = e2_instance.replace(B=lam2.basis_vector(0))
    names = failing(bad)
    assert "b_orthogonal_pic" in names


def test_w_outside_pic(e2_instance, lam2):
    bad = e2_instance.replace(W=lam2.vector([0, 0, 1, -1] + [0] * 19))
    assert "w_in_pic" in failing(bad)


def test_w_norm_out_of_bound(e2_instance):
    bad = e2_instance.replace(C0=2)   # -W^2 = 2 is not < 2
    assert "w_norm_bound" in failing(bad)


def test_pic_not_saturated(lam2):
    p1 = lam2.vector([2] + [0] * 22)
    p2 = lam2.basis_vector(1)
    inst = HKInstance(n=2, pic_basis=(p1, p2), W=p2, B=lam2.vector([0, 0, 1, 1] + [0] * 19), d=1, C0=3)
    assert "pic_saturated" in failing(inst)


def test_pic_rank_one_flagged(lam2):
    p1 = lam2.vector([1] + [0] * 21 + [1])
    inst = HKInstance(n=2, pic_basis=(p1,), W=p1, B=lam2.vector([0, 0, 1, 1] + [0] * 19), d=1, C0=3)
    assert "pic_rank" in failing(inst)


def test_zero_b_field_rejected(e2_instance, lam2):
    # a vanishing B-field never reaches the pipeline
    bad = e2_instance.replace(B=lam2.zero())
    names = failing(bad)
    assert "b_primitive" in names and "b_norm_positive" in names


def test_pic_coordinates(e2_instance):
    w = e2_instance.W
    assert pic_coordinates(e2_instance, w) == [1, 0]
    out = e2_instance.lattice.basis_vector(4)
    assert pic_coordinates(e2_instance, out) is None


# --- Brauer classes ----------------------------------------------------------

def test_brauer_integral_class_is_zero(e2_instance, lam2):
    pic = e2_instance.pic_basis
    beta = lam2.vector([0, 0, 3, -2, 1] + [0] * 18)
    a = BrauerClass(RationalClass(beta, 1), pic)
    zero = BrauerClass(RationalClass(lam2.zero(), 1), pic)
    assert brauer_equal(a, zero)


def test_brauer_differ_by_picard_class(e2_instance, lam2):
    pic = e2_instance.pic_basis
    delta = lam2.basis_vector(22)
    f1 = lam2.basis_vector(1)
    a = BrauerClass(RationalClass(delta, 2), pic)
    b = BrauerClass(RationalClass(delta + 2 * f1, 2), pic)
    assert brauer_equal(a, b)


def test_brauer_distinct(e2_instance, lam2):
    pic = e2_instance.pic_basis
    a = BrauerClass(RationalClass(lam2.vector([0, 0, 1, 1] + [0] * 19), 2), pic)
    zero = BrauerClass(RationalClass(lam2.zero(), 1), pic)
    assert not brauer_equal(a, zero)


def test_brauer_context_mismatch(e2_instance, lam2):
    a = BrauerClass(RationalClass(lam2.zero(), 1), e2_instance.pic_basis)
    b = BrauerClass(RationalClass(lam2.zero(), 1), (lam2.basis_vector(0),))
    with pytest.raises(ValueError):
        brauer_equal(a, b)


def test_brauer_equivalence_relation(e2_instance, lam2):
    # reflexive, symmetric, transitive over random representatives
    rng = random.Random(99)
    pic = e2_instance.pic_basis
    classes = []
    for _ in range(12):
        num = lam2.vector([rng.randint(-3, 3) for _ in range(23)])
        classes.append(BrauerClass(RationalClass(num, rng.randint(1, 4)), pic))
    for a in classes:
        assert brauer_equal(a, a)
    for a in classes[:6]:
        for b in classes[:6]:
            assert brauer_equal(a, b) == brauer_equal(b, a)
    for a in classes[:4]:
        for b in classes[:4]:
            for c in classes[:4]:
                if brauer_equal(a, b) and brauer_equal(b, c):
                    assert brauer_equal(a, c)


# --- normalization -----------------------------------------------------------

def test_normalize_noop_when_positive(e2_instance):
    assert normalize_brauer(e2_instance) is e2_instance


def test_normalize_pinned_example(e2_instance, lam2):
    # B = e2 - f2 has norm -2; the documented search shifts by -2 f2
    neg = e2_instance.replace(B=lam2.vector([0, 0, 1, -1] + [0] * 19), d=1)
    out = normalize_brauer(neg)
    assert out.B == lam2.vector([0, 0, 1, 1] + [0] * 19)
    assert norm(out.B) == 2


def test_normalize_preserves_class(e2_instance, lam2):
    neg = e2_instance.replace(B=lam2.vector([0, 0, 1, -1] + [0] * 19), d=1)
    out = normalize_brauer(neg)
    assert norm(out.B) > 0
    assert brauer_equal(b_field_class(neg), b_field_class(out))


def test_normalize_preserves_class_d2(e2_instance, lam2):
    neg = e2_instance.replace(B=lam2.vector([0, 0, 2, -1] + [0] * 19))
    assert norm(neg.B) < 0
    out = normalize_brauer(neg)
    assert norm(out.B) > 0
    assert brauer_equal(b_field_class(neg), b_field_class(out))
    assert instance_is_valid(out)


# --- generator ---------------------------------------------------------------

def test_random_instance_deterministic():
    a = random_instance(2, 2, 3, 3, seed=7)
    b = random_instance(2, 2, 3, 3, seed=7)
    assert a == b
    c = random_instance(2, 2, 3, 3, seed=8)
    assert a != c


def test_random_instance_rejects_rank_one():
    with pytest.raises(ValueError):
        random_instance(2, 1, 3, 3, seed=1)
    with pytest.raises(ValueError):
        random_instance(7, 2, 3, 3, seed=1)


def test_random_instances_valid_200_seeds():
    rng = random.Random(314)
    for i in range(200):
        n = rng.choice((2, 3, 4, 5))
        rho = rng.choice((2, 3))
        c0 = rng.choice((3, 4, 5, 6))
        dmax = rng.randint(1, 4)
        try:
            inst = random_instance(n, rho, c0, dmax, seed=5000 + i)
        except SearchExhausted:
            continue
        assert instance_is_valid(inst)
        assert 0 < -norm(inst.W) < inst.C0
        assert 1 <= inst.d <= dmax
        # orthogonality of B against the Picard span, wall class included
        assert pair(inst.B, inst.W) == 0
        for p in inst.pic_basis:
            assert pair(inst.B, p) == 0
