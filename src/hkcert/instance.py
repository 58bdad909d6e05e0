"""Problem instances: Picard sublattice, wall class, B-field, and the bound C0.

Also houses Brauer-class arithmetic (equality modulo rational Picard classes
plus integral classes) and the closed forms that construct and verify share.
"""

from __future__ import annotations

from math import factorial

from . import lattice as lat
from . import snf
from .lattice import (
    DELTA_INDEX,
    GramLattice,
    Isometry,
    LatticeVector,
    RationalClass,
    build_lambda,
    in_span_plus_lattice,
    is_primitive,
    norm,
    pair,
)
from .record import Record

# construct's search budgets, in the order a certificate records them
BUDGETS = {"coeff_bound": 16, "u_budget": 10**6, "t_budget": 10**6, "isometry_budget": 10000}


class HKInstance(Record):
    __slots__ = _fields = ("n", "pic_basis", "W", "B", "d", "C0")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "pic_basis", tuple(self.pic_basis))

    @property
    def lattice(self) -> GramLattice:
        return self.W.lattice

    def e(self) -> int:
        return norm(self.B) // 2

    def replace(self, **changes) -> "HKInstance":
        """A copy with the named fields changed, normalized like a new instance."""
        return HKInstance(**dict(zip(self._fields, self._values()), **changes))


class BrauerClass(Record):
    """A B-field class [representative] relative to a fixed Picard basis."""

    __slots__ = _fields = ("representative", "pic_basis")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "pic_basis", tuple(self.pic_basis))


class CheckResult(Record):
    __slots__ = _fields = ("name", "ok", "details")

    def __init__(self, name, ok, details=""):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "details", details)


def _pic_snf(inst):
    # the basis's Hermite rows, U's sparse columns and the invariant factors,
    # cached under the key brauer_equal's span test uses, so it shares them
    return lat._span_snf(inst.lattice, tuple(p.coords for p in inst.pic_basis))


def pic_coordinates(inst, v):
    """Integer coordinates of v over the Hermite rows of pic_basis, or None if v is not in Pic."""
    return snf.solve_integer(_pic_snf(inst)[0], v.coords)


def validate_instance(inst: HKInstance):
    """Run every instance invariant; failures become report entries, not errors."""
    checks = []
    L = inst.lattice
    rho = len(inst.pic_basis)

    same = all(p.lattice == L for p in inst.pic_basis) and inst.B.lattice == L
    checks.append(CheckResult("vectors_same_lattice", same))
    if not same:
        return checks

    ok = inst.n >= 2 and inst.d >= 1 and inst.C0 >= 1
    checks.append(CheckResult("params_in_range", ok, f"n={inst.n} d={inst.d} C0={inst.C0}"))
    ok = L == build_lambda(inst.n) if inst.n >= 2 else False
    checks.append(CheckResult("lattice_matches_n", ok))

    checks.append(CheckResult("pic_rank", rho >= 2, f"rank {rho}"))

    diag = list(_pic_snf(inst)[2])
    independent = len(diag) == rho
    checks.append(CheckResult("pic_independent", independent))
    saturated = independent and all(d == 1 for d in diag)
    checks.append(
        CheckResult("pic_saturated", saturated, f"invariant factors {diag}")
    )

    checks.append(CheckResult("w_in_pic", pic_coordinates(inst, inst.W) is not None))
    w_prim = is_primitive(inst.W)
    checks.append(CheckResult("w_primitive", w_prim))
    # the MBM bound: W primitive with 0 < -(W, W) < C0
    w_norm = norm(inst.W)
    w_bound = w_prim and 0 < -w_norm < inst.C0
    checks.append(CheckResult("w_norm_bound", w_bound, f"norm {w_norm}, C0 {inst.C0}"))

    orth = all(pair(inst.B, p) == 0 for p in inst.pic_basis)
    checks.append(CheckResult("b_orthogonal_pic", orth))
    b_norm = norm(inst.B)
    checks.append(CheckResult("b_norm_positive", b_norm > 0, f"norm {b_norm}"))
    b_prim = is_primitive(inst.B)
    checks.append(CheckResult("b_primitive", b_prim))
    return checks


def b_field_class(inst: HKInstance) -> BrauerClass:
    """The instance's Brauer class [-B/d]."""
    return BrauerClass(RationalClass(-inst.B, inst.d), inst.pic_basis)


def brauer_equal(a: BrauerClass, b: BrauerClass) -> bool:
    if a.representative.numerator.lattice != b.representative.numerator.lattice:
        raise ValueError("classes live in different lattices")
    if a.pic_basis != b.pic_basis:
        raise ValueError("classes carry different Picard contexts")
    return in_span_plus_lattice(a.representative - b.representative, a.pic_basis)


class MukaiVector(Record):
    __slots__ = _fields = ("r", "m", "s", "H2")

    def self_pairing(self) -> int:
        return self.m * self.m * self.H2 - 2 * self.r * self.s


def mukai_data(n: int, g: int, t: int, d: int, e: int):
    """(r, m, s, H2) = (16gt^2d^4, 4td^2, s, 2gs), s = 1 + 4gt^2d^4(n-1) + 16gt^2d^2e.

    Pure arithmetic, total on any integers: the verifier evaluates it on
    the recorded values as they come.
    """
    s = 1 + 4 * g * t * t * d**4 * (n - 1) + 16 * g * t * t * d * d * e
    return 16 * g * t * t * d**4, 4 * t * d * d, s, 2 * g * s


def canonical_degree_class(L, H2: int) -> LatticeVector:
    """The fixed primitive representative e1 + (H2/2) f1 of a degree-H2 class."""
    coords = [0] * L.rank
    coords[0] = 1
    coords[1] = H2 // 2
    return L.vector(coords)


def transport_ends(inst: HKInstance, D, g, t, H2):
    """(source, target) = (h - 2gtd^2 delta, D + 4gtd B), h the canonical
    degree-H2 class."""
    L = inst.lattice
    d = inst.d
    source = canonical_degree_class(L, H2) - (2 * g * t * d * d) * L.basis_vector(DELTA_INDEX)
    return source, D + (4 * g * t * d) * inst.B


def pushed_class(inst: HKInstance, sigma: Isometry, H2: int, den: int, epsilon: int):
    """The class -sigma(epsilon*h/den - delta/2), h the canonical degree-H2
    class and den = 4gtd^2 != 0."""
    L = inst.lattice
    h = canonical_degree_class(L, H2)
    num = epsilon * h - (den // 2) * L.basis_vector(DELTA_INDEX)
    # sigma is unimodular, so reducing num/den before or after applying it agrees
    return BrauerClass(RationalClass(-sigma.apply(num), den), inst.pic_basis)


def rank_factor(n: int, r: int) -> int:
    """Rank of the induced bundle on the n-point Hilbert scheme product: n! r^n."""
    return factorial(n) * r**n


def rank_factor_min_bits(n: int, r: int) -> int:
    """A strict lower bound on the bit length of n! r^n for n, r >= 1, found
    without forming it: n! >= (n/e)^n and e < 4."""
    return n * (n.bit_length() + r.bit_length() - 4)


def __getattr__(name):  # random_instance, from hkcert.sampler on first use
    if name != "random_instance":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .sampler import random_instance
    return random_instance
