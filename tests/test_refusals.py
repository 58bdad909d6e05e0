"""Refusals and edge branches that the rest of the suite does not reach: each
case is one call, given the worked instance of tests/conftest.py, and the
exception, or the value, it must give."""

import pytest

from hkcert import sampler
from hkcert.construction import choose_t, find_A, isometry_between
from hkcert.errors import SearchExhausted
from hkcert.instance import BrauerClass, brauer_equal, validate_instance
from hkcert.lattice import (
    GramLattice,
    Isometry,
    LatticeVector,
    RationalClass,
    build_lambda,
    direct_sum,
    hyperbolic_plane,
    in_span_plus_lattice,
)
from hkcert.obstruction import proportionality_bound
from hkcert.sampler import random_instance
from hkcert.snf import det_bareiss

LAM2 = build_lambda(2)
UU = direct_sum(hyperbolic_plane(), hyperbolic_plane(), label="U+U")
# two orthogonal hyperbolic planes, as isometry_between needs, but odd
ODD = direct_sum(hyperbolic_plane(), hyperbolic_plane(), GramLattice(1, ((1,),)))
# even with two orthogonal hyperbolic planes, but not as its first four basis vectors
SHIFTED = direct_sum(GramLattice(1, ((-2,),)), hyperbolic_plane(), hyperbolic_plane())
E1 = LAM2.basis_vector(0)
IDENTITY_UU = Isometry(tuple(tuple(int(i == j) for j in range(4)) for i in range(4)), UU)


def _sample_with_every_try_rejected(inst):
    # the sampler gives up after its 400th rejected try
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler, "_try_sample", lambda *args: None)
        return random_instance(2, 2, 3, 1, 0)


REFUSALS = {
    "find_A exhausts its coefficient bound": (
        lambda inst: find_A(inst, 0), SearchExhausted, "within coefficient bound 0"),
    "choose_t exhausts its budget": (
        lambda inst: choose_t(inst, inst.W, 1, t_budget=0), SearchExhausted,
        "no admissible t within budget 0"),
    "isometry_between two lattices": (
        lambda inst: isometry_between(E1, UU.basis_vector(0)), ValueError, "different lattices"),
    "isometry_between unequal divisibilities": (
        lambda inst: isometry_between(E1, 2 * E1), ValueError, "got 1 and 2"),
    "isometry_between off the first four basis vectors": (
        lambda inst: isometry_between(SHIFTED.vector([0, 1, 3, 0, 0]), SHIFTED.vector([0, 0, 0, 1, 3])),
        ValueError, "^lattice needs two orthogonal hyperbolic planes as its first four basis vectors$"),
    "isometry_between on an odd lattice": (
        lambda inst: isometry_between(ODD.vector([1, 1, 0, 0, 0]), ODD.vector([0, 0, 1, 1, 0])),
        ValueError, "lattice must be even"),
    "Gram matrix of the wrong shape": (
        lambda inst: GramLattice(2, ((0, 1),)), ValueError, "shape does not match rank"),
    "vector of the wrong length": (
        lambda inst: LatticeVector([1, 0, 0], UU), ValueError, "length does not match"),
    "sum of vectors of two lattices": (
        lambda inst: E1 + UU.basis_vector(0), ValueError, "different lattices"),
    "sum of a vector and an integer": (lambda inst: E1 + 1, ValueError, "different lattices"),
    "isometry applied to a foreign vector": (
        lambda inst: IDENTITY_UU.apply(E1), ValueError, "different lattice"),
    "span membership over a foreign span": (
        lambda inst: in_span_plus_lattice(RationalClass(E1, 2), [UU.basis_vector(0)]),
        ValueError, "span vectors live in a different lattice"),
    "Brauer classes of two lattices": (
        lambda inst: brauer_equal(BrauerClass(RationalClass(E1, 2), ()),
                                  BrauerClass(RationalClass(UU.basis_vector(0), 2), ())),
        ValueError, "different lattices"),
    "proportionality bound of C0 = 0": (
        lambda inst: proportionality_bound(0), ValueError, "C0 must be positive"),
    "sampler with C0 = 0": (
        lambda inst: random_instance(2, 2, 0, 1, 0), ValueError, "C0 and d_max must be positive"),
    "sampler with d_max = 0": (
        lambda inst: random_instance(2, 2, 3, 0, 0), ValueError, "C0 and d_max must be positive"),
    # Lambda is even, so C0 = 1 or 2 leaves no wall norm in (-C0, 0)
    "sampler with C0 = 1": (
        lambda inst: random_instance(2, 2, 1, 1, 0), ValueError,
        r"^C0 must be at least 3 for an even wall norm to lie in \(-C0, 0\), got 1$"),
    "sampler with C0 = 2": (
        lambda inst: random_instance(2, 2, 2, 1, 0), ValueError,
        r"^C0 must be at least 3 for an even wall norm to lie in \(-C0, 0\), got 2$"),
    "sampler after 400 failed tries": (
        _sample_with_every_try_rejected, SearchExhausted, "failed after 400 attempts"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal(case, e2_instance):
    call, exc, match = REFUSALS[case]
    with pytest.raises(exc, match=match):
        call(e2_instance)


EDGES = {
    "vector from a list": (lambda inst: LatticeVector([1, 0, 0, 0], UU).coords, (1, 0, 0, 0)),
    "exact determinant of the empty matrix": (lambda inst: det_bareiss([]), 1),
    # the first check fails and none after it runs
    "instance across two lattices": (
        lambda inst: [(c.name, c.ok) for c in validate_instance(inst.replace(B=UU.basis_vector(0)))],
        [("vectors_same_lattice", False)]),
}


@pytest.mark.parametrize("case", EDGES)
def test_edge(case, e2_instance):
    call, expected = EDGES[case]
    assert call(e2_instance) == expected
