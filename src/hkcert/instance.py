"""Problem instances: Picard sublattice, wall class, B-field, and the bound C0.

Also houses Brauer-class arithmetic (equality is congruence modulo rational
Picard classes plus integral classes), the closed forms that construct and
verify both evaluate, and the seeded random instance generator used by the
property suite and the CLI.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from math import factorial, gcd
from operator import mul

from . import lattice as lat
from . import snf
from .errors import SearchExhausted
from .lattice import (
    DELTA_INDEX,
    GramLattice,
    Isometry,
    LatticeVector,
    RationalClass,
    build_lambda,
    form_value,
    gram_of,
    graded_coefficient_tuples,
    in_span_plus_lattice,
    is_primitive,
    line_box_interval,
    linear_combination,
    norm,
    orthogonal_complement_basis,
    pair,
    positive_on_interval,
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
    # under the key brauer_equal's span test uses, so it shares it too
    return lat._span_snf(inst.lattice, tuple(p.coords for p in inst.pic_basis))


def pic_coordinates(inst, v):
    """Integer coordinates of v over pic_basis, or None if v is not in the span."""
    return snf.solve_integer(_pic_snf(inst), list(v.coords))


def w_pairings(inst):
    """(p, W) for each Picard basis vector p."""
    return [pair(p, inst.W) for p in inst.pic_basis]


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


_NORMALIZE_COEFF_BOUND = 8
_NORMALIZE_CANDIDATES = 200000


def normalize_brauer(inst: HKInstance):
    """Shift B by d * (integral class orthogonal to Pic) until its norm is positive.

    The Brauer class [-B/d] is unchanged.  Identity when the norm is already
    positive.  Candidates are enumerated in the documented search order over
    the canonical complement basis with per-coefficient bound
    _NORMALIZE_COEFF_BOUND, at most _NORMALIZE_CANDIDATES of them.

    Also identity when no shift can be primitive: a common factor of d and
    every coordinate of B divides every B - d*c.  Validation then names the
    failing check at once.
    """
    if norm(inst.B) > 0 or gcd(inst.d, *inst.B.coords) > 1:
        return inst
    comp = orthogonal_complement_basis(inst.lattice, inst.pic_basis)
    seen = 0
    for coeffs in graded_coefficient_tuples(len(comp), _NORMALIZE_COEFF_BOUND):
        seen += 1
        if seen > _NORMALIZE_CANDIDATES:
            break
        cand = inst.B - inst.d * linear_combination(inst.lattice, coeffs, comp)
        if norm(cand) > 0 and is_primitive(cand):
            return inst.replace(B=cand)
    raise SearchExhausted(
        f"no orthogonal shift with positive norm within coefficient bound "
        f"{_NORMALIZE_COEFF_BOUND} ({min(seen, _NORMALIZE_CANDIDATES)} candidates tried)"
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
        if inst is None or not all(c.ok for c in validate_instance(inst)):
            continue
        if _pipeline_feasible(inst):
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
    sub_gram = gram_of(pic)
    if snf.gram_signature(sub_gram) != (1, pic_rank - 1, 0):
        return None
    # the Picard matrix's other rows are zero and add no nonzero minor
    if not _saturated([[p.coords[i] for p in pic] for i in _PIC_SUPPORT], pic_rank):
        return None

    W = None
    for _ in range(80):
        coeffs = [rng.randint(-3, 3) for _ in range(pic_rank)]
        if not 0 < -form_value(sub_gram, coeffs) < C0:
            continue
        cand = linear_combination(L, coeffs, pic)
        if is_primitive(cand):
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
    # contribution, so weight retries generously.  A candidate's norm comes
    # from the Gram matrix of the complement basis, and only a candidate of
    # positive norm (so nonzero) is built
    basis = [c.coords for c in comp]
    gram = snf.mat_mul(snf.mat_mul(basis, L.gram), snf.transpose(basis))
    for _ in range(120):
        k = rng.randint(1, min(3, len(comp)))
        picks = rng.sample(range(len(comp)), k)
        coeffs = [rng.randint(-2, 2) for _ in picks]
        if form_value([[gram[a][b] for b in picks] for a in picks], coeffs) <= 0:
            continue
        cand = linear_combination(L, coeffs, [comp[idx] for idx in picks])
        if is_primitive(cand):
            return cand
    return None


def _saturated(rows, rank):
    # the columns of an integer matrix with `rank` columns are independent
    # and span a saturated sublattice iff the gcd of its rank x rank minors
    # (the product of its invariant factors) is 1
    g = 0
    for minor in combinations(rows, rank):
        g = gcd(g, snf.det_bareiss(minor))
        if g == 1:
            return True
    return False


def _pipeline_feasible(inst):
    # reject instances the bounded searches could not handle: a small
    # divisibility-1 class pairing nontrivially with W must exist, and the
    # orthogonal-to-W sublattice must contain a positive-norm class whose
    # Picard coefficients stay inside the search bound
    from .construction import find_A  # construction imports this module

    try:
        find_A(inst, 3)
    except SearchExhausted:
        return False
    return _kernel_has_bounded_positive(gram_of(inst.pic_basis), w_pairings(inst))


def _kernel_has_bounded_positive(sub_gram, weights):
    # whether a nonzero k in [-12, 12]^K over the kernel basis of the weights
    # gives Picard coefficients c = sum k_i kern_i, each |c_j| <= 16, of
    # positive norm.  With all but the last k_i fixed, c = base + x step is
    # a line, its bounds an interval for x, and its norm a x^2 + b x + c
    kern = snf.kernel_basis(snf.smith_normal_form([weights]))
    if not kern:
        return False
    cols = list(zip(*kern))
    step = kern[-1]
    a = form_value(sub_gram, step)
    g_step = snf.mat_vec(sub_gram, step)
    for prefix in product(range(-12, 13), repeat=len(kern) - 1):
        # map stops at the shorter prefix, so each base_j leaves step out
        base = [sum(map(mul, col, prefix)) for col in cols]
        lo, hi = line_box_interval(base, step, 16, -12, 12)
        b = 2 * sum(map(mul, base, g_step))
        if positive_on_interval(a, b, form_value(sub_gram, base), lo, hi):
            return True
    return False
