"""Problem instances: Picard sublattice, wall class, B-field, and the bound C0.

Also houses Brauer-class arithmetic (equality is congruence modulo rational
Picard classes plus integral classes) and the seeded random instance
generator used by the property suite and the CLI.
"""

from __future__ import annotations

import random
from math import gcd

from . import lattice as lat
from . import obstruction
from . import snf
from .errors import SearchExhausted
from .lattice import (
    GramLattice,
    LatticeVector,
    RationalClass,
    build_lambda,
    graded_coefficient_tuples,
    in_span_plus_lattice,
    is_primitive,
    norm,
    orthogonal_complement_basis,
    pair,
)
from .record import Record


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
    # Smith form of the Picard matrix (columns are the basis vectors), cached
    # under the same key as the span solver's, so brauer_equal shares it too
    return lat._span_snf(inst.lattice, tuple(p.coords for p in inst.pic_basis))


def pic_coordinates(inst, v):
    """Integer coordinates of v over pic_basis, or None if v is not in the span."""
    return snf.solve_integer(_pic_snf(inst), list(v.coords))


def pic_combination(inst, coeffs) -> LatticeVector:
    n = inst.lattice.rank
    out = [0] * n
    for c, p in zip(coeffs, inst.pic_basis):
        if c:
            pc = p.coords
            for i in range(n):
                out[i] += c * pc[i]
    return inst.lattice._vec(tuple(out))


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

    data = _pic_snf(inst)
    diag = [d for d in snf.snf_diagonal(data[1]) if d != 0]
    independent = len(diag) == rho
    checks.append(CheckResult("pic_independent", independent))
    saturated = independent and all(d == 1 for d in diag)
    checks.append(
        CheckResult("pic_saturated", saturated, f"invariant factors {diag}")
    )

    in_span = snf.solve_integer(data, list(inst.W.coords)) is not None
    checks.append(CheckResult("w_in_pic", in_span))
    w_prim = (not inst.W.is_zero()) and is_primitive(inst.W)
    checks.append(CheckResult("w_primitive", w_prim))
    w_bound = (not inst.W.is_zero()) and obstruction.mbm_bound_check(inst.W, inst.C0)
    checks.append(
        CheckResult("w_norm_bound", w_bound, f"norm {norm(inst.W)}, C0 {inst.C0}")
    )

    orth = all(pair(inst.B, p) == 0 for p in inst.pic_basis)
    checks.append(CheckResult("b_orthogonal_pic", orth))
    checks.append(
        CheckResult("b_norm_positive", norm(inst.B) > 0, f"norm {norm(inst.B)}")
    )
    b_prim = (not inst.B.is_zero()) and is_primitive(inst.B)
    checks.append(CheckResult("b_primitive", b_prim))
    return checks


def instance_is_valid(inst) -> bool:
    return all(c.ok for c in validate_instance(inst))


def b_field_class(inst: HKInstance) -> BrauerClass:
    """The instance's Brauer class [-B/d]."""
    return BrauerClass(RationalClass(-inst.B, inst.d), inst.pic_basis)


def brauer_equal(a: BrauerClass, b: BrauerClass) -> bool:
    if a.representative.numerator.lattice != b.representative.numerator.lattice:
        raise ValueError("classes live in different lattices")
    if a.pic_basis != b.pic_basis:
        raise ValueError("classes carry different Picard contexts")
    return in_span_plus_lattice(a.representative - b.representative, a.pic_basis)


def normalize_brauer(inst: HKInstance, coeff_bound: int = 8, candidate_budget: int = 200000):
    """Shift B by d * (integral class orthogonal to Pic) until its norm is positive.

    The Brauer class [-B/d] is unchanged.  Identity when the norm is already
    positive.  Candidates are enumerated in the documented search order over
    the canonical complement basis with per-coefficient bound ``coeff_bound``.
    """
    if norm(inst.B) > 0:
        return inst
    comp = orthogonal_complement_basis(inst.lattice, inst.pic_basis)
    seen = 0
    for coeffs in graded_coefficient_tuples(len(comp), coeff_bound):
        seen += 1
        if seen > candidate_budget:
            break
        lam = inst.lattice.zero()
        for c, t in zip(coeffs, comp):
            if c:
                lam = lam + c * t
        cand = inst.B - inst.d * lam
        if cand.is_zero() or norm(cand) <= 0:
            continue
        if not is_primitive(cand):
            continue
        return inst.replace(B=cand)
    raise SearchExhausted(
        f"no orthogonal shift with positive norm within coefficient bound {coeff_bound} "
        f"({min(seen, candidate_budget)} candidates tried)"
    )


# ---------------------------------------------------------------------------
# seeded generator

_PIC_SUPPORT = (0, 1, 2, 3, lat.DELTA_INDEX)


def random_instance(n: int, pic_rank: int, C0: int, d_max: int, seed: int) -> HKInstance:
    """Deterministic-in-seed instance sampler.

    Picard vectors have entries in [-3, 3] supported on the first two
    hyperbolic planes and delta; rejection runs until the Picard form has
    signature (1, rank-1), the sublattice is saturated, a wall class of
    norm in (-C0, 0) exists, and a positive-norm primitive B can be drawn
    from the orthogonal complement.
    """
    if not 2 <= n <= 6:
        raise ValueError(f"n must be in [2, 6], got {n}")
    if not 2 <= pic_rank <= 4:
        raise ValueError(f"pic_rank must be in [2, 4], got {pic_rank}")
    if C0 < 1 or d_max < 1:
        raise ValueError("C0 and d_max must be positive")
    rng = random.Random(seed)
    L = build_lambda(n)
    for _ in range(400):
        inst = _try_sample(rng, L, n, pic_rank, C0, d_max)
        if inst is not None and instance_is_valid(inst) and _pipeline_feasible(inst):
            return inst
    raise SearchExhausted(
        f"instance generation failed after 400 attempts (seed {seed}, n={n}, "
        f"pic_rank={pic_rank}, C0={C0}, d_max={d_max})"
    )


def _try_sample(rng, L, n, pic_rank, C0, d_max):
    pic = []
    for _ in range(pic_rank):
        coords = [0] * L.rank
        for idx in _PIC_SUPPORT:
            coords[idx] = rng.randint(-3, 3)
        pic.append(L.vector(coords))
    if any(p.is_zero() for p in pic):
        return None
    sub_gram = [[pair(a, b) for b in pic] for a in pic]
    if snf.gram_signature(sub_gram) != (1, pic_rank - 1, 0):
        return None
    mat = [[p.coords[i] for p in pic] for i in range(L.rank)]
    data = snf.smith_normal_form(mat)
    diag = [d for d in snf.snf_diagonal(data[1]) if d != 0]
    if len(diag) != pic_rank or any(d != 1 for d in diag):
        return None

    W = None
    for _ in range(80):
        coeffs = [rng.randint(-3, 3) for _ in range(pic_rank)]
        nrm = sum(
            coeffs[i] * coeffs[j] * sub_gram[i][j]
            for i in range(pic_rank)
            for j in range(pic_rank)
        )
        if not 0 < -nrm < C0:
            continue
        cand = L.zero()
        for c, p in zip(coeffs, pic):
            if c:
                cand = cand + c * p
        if not cand.is_zero() and is_primitive(cand):
            W = cand
            break
    if W is None:
        return None

    comp = orthogonal_complement_basis(L, pic)
    B = _sample_b(rng, L, comp)
    if B is None:
        return None
    d = rng.randint(1, d_max)
    return HKInstance(n=n, pic_basis=tuple(pic), W=W, B=B, d=d, C0=C0)


def _sample_b(rng, L, comp):
    # mix at most three complement vectors; positive norm needs a hyperbolic
    # contribution, so weight retries generously
    rank = L.rank
    for _ in range(120):
        k = rng.randint(1, min(3, len(comp)))
        picks = rng.sample(range(len(comp)), k)
        coords = [0] * rank
        for idx in picks:
            c = rng.randint(-2, 2)
            if c:
                row = comp[idx].coords
                for i in range(rank):
                    coords[i] += c * row[i]
        if not any(coords):
            continue
        cand = L._vec(tuple(coords))
        if norm(cand) > 0 and is_primitive(cand):
            return cand
    return None


def _pipeline_feasible(inst, coeff_bound=16):
    # reject instances the bounded searches could not handle: a small
    # divisibility-1 class pairing nontrivially with W must exist, and the
    # orthogonal-to-W sublattice must contain a positive-norm class whose
    # Picard coefficients stay inside the search bound
    rho = len(inst.pic_basis)
    basis_pairings = [lat._gram_times(p) for p in inst.pic_basis]
    w_pairings = [pair(p, inst.W) for p in inst.pic_basis]
    sub_gram = [[pair(a, b) for b in inst.pic_basis] for a in inst.pic_basis]
    rank = inst.lattice.rank

    found_a = False
    for coeffs in graded_coefficient_tuples(rho, 3):
        cw = sum(c * w for c, w in zip(coeffs, w_pairings))
        if cw == 0:
            continue
        g = 0
        for i in range(rank):
            g = gcd(g, sum(coeffs[k] * basis_pairings[k][i] for k in range(rho)))
            if g == 1:
                break
        if g == 1:
            found_a = True
            break
    if not found_a:
        return False

    kern = snf.kernel_basis(snf.smith_normal_form([w_pairings]))
    if not kern:
        return False
    for kcoeffs in graded_coefficient_tuples(len(kern), 12):
        coeffs = [0] * rho
        for kc, gen in zip(kcoeffs, kern):
            if kc:
                for i in range(rho):
                    coeffs[i] += kc * gen[i]
        if any(abs(c) > coeff_bound for c in coeffs):
            continue
        nrm = sum(
            coeffs[i] * coeffs[j] * sub_gram[i][j]
            for i in range(rho)
            for j in range(rho)
        )
        if nrm > 0:
            return True
    return False
