"""The divisor/Mukai-vector pipeline.

Given a valid instance this finds the auxiliary class A, the orthogonal
class omega, the divisor D = A + u*omega with norm 2g beyond the wall
bound, the twist multiplier t, the polarization degree and isotropic Mukai
vector, the transport isometry between the canonical degree class and
D + 4gtd*B, and the pushed-forward B-field class.  Every search takes the
first hit in the documented order, so outputs are reproducible.
"""

from __future__ import annotations

from math import factorial, gcd

from . import obstruction
from .errors import ConstructionInvariantViolated, SearchExhausted
from .instance import (
    BrauerClass,
    CheckResult,
    HKInstance,
    b_field_class,
    brauer_equal,
    w_pairings,
)
from .lattice import (
    DELTA_INDEX,
    Isometry,
    LatticeVector,
    RationalClass,
    _gram_times,
    divisibility,
    first_orthogonal_tuple,
    form_value,
    gram_of,
    graded_coefficient_tuples,
    isometry_between,
    linear_combination,
    norm,
    pair,
)
from .record import Record


class MukaiVector(Record):
    __slots__ = _fields = ("r", "m", "s", "H2")

    def self_pairing(self) -> int:
        return self.m * self.m * self.H2 - 2 * self.r * self.s


class ConstructionRecord(Record):
    __slots__ = _fields = (
        "A",
        "omega",
        "D",
        "u",
        "C1",
        "g",
        "t",
        "e",
        "H2",
        "v0",
        "source",
        "target",
        "sigma",
        "epsilon",
        "rk_un",
        "alpha_x",
        "checks",
    )


def find_A(inst: HKInstance, coeff_bound: int = 16) -> LatticeVector:
    """First Picard class (documented order) of divisibility 1 pairing
    nontrivially with W, sign-normalized so the pairing is positive."""
    weights = w_pairings(inst)
    if not any(weights):
        raise SearchExhausted(
            "W pairs to zero with the whole Picard basis; no candidate exists "
            f"(coefficient bound {coeff_bound})"
        )
    for coeffs in graded_coefficient_tuples(len(weights), coeff_bound):
        c1 = sum(c * w for c, w in zip(coeffs, weights))
        if c1:
            cand = linear_combination(inst.lattice, coeffs, inst.pic_basis)
            if divisibility(cand) == 1:
                return cand if c1 > 0 else -cand
    raise SearchExhausted(
        f"no divisibility-1 class pairing with W within coefficient bound {coeff_bound}"
    )


def find_omega(inst: HKInstance, coeff_bound: int = 16) -> LatticeVector:
    """First Picard class (documented order) orthogonal to W with positive norm.

    Only the W-orthogonal coefficient tuples are visited (see
    first_orthogonal_tuple); the hit is the one the full scan finds first.
    """
    weights = w_pairings(inst)
    if not any(weights):
        raise SearchExhausted(
            "W pairs to zero with the whole Picard basis; no coordinate can be "
            f"solved (coefficient bound {coeff_bound})"
        )
    sub_gram = gram_of(inst.pic_basis)
    coeffs = first_orthogonal_tuple(weights, coeff_bound, lambda c: form_value(sub_gram, c) > 0)
    if coeffs is None:
        raise SearchExhausted(
            f"no positive-norm class orthogonal to W within coefficient bound {coeff_bound}"
        )
    return linear_combination(inst.lattice, coeffs, inst.pic_basis)


def _first_unit_divisibility(gx, gy, ks):
    """The first k of ``ks`` with div(X + kY) = 1, or None, given the pairings
    gx = G X and gy = G Y of X and Y with the basis."""
    for k in ks:
        if gcd(*[px + k * py for px, py in zip(gx, gy)]) == 1:
            return k
    return None


def find_D(inst: HKInstance, A: LatticeVector, omega: LatticeVector, u_budget: int = 10**6):
    """Smallest u >= 1 with div(A + u*omega) = 1 and (A + u*omega)^2 > 2*C0*C1.

    Returns (D, g, C1, u).  Termination is guaranteed in theory; the budget
    turns pathologies into a reported error rather than a wrong answer.
    """
    C1 = pair(A, inst.W)
    a2, aw, w2 = pair(A, A), pair(A, omega), pair(omega, omega)
    bound = 2 * inst.C0 * C1
    us = (u for u in range(1, u_budget + 1) if a2 + 2 * u * aw + u * u * w2 > bound)
    u = _first_unit_divisibility(_gram_times(A), _gram_times(omega), us)
    if u is None:
        raise SearchExhausted(f"no admissible u within budget {u_budget}")
    return A + u * omega, (a2 + 2 * u * aw + u * u * w2) // 2, C1, u


def choose_t(inst: HKInstance, D: LatticeVector, g: int, t_budget: int = 10**6) -> int:
    """Smallest t >= 1 with div(D + 4*g*t*d*B) = 1."""
    step = 4 * g * inst.d
    gb = [step * p for p in _gram_times(inst.B)]
    t = _first_unit_divisibility(_gram_times(D), gb, range(1, t_budget + 1))
    if t is None:
        raise SearchExhausted(f"no admissible t within budget {t_budget}")
    return t


def mukai_data(n: int, g: int, t: int, d: int, e: int):
    """(r, m, s, H2) = (16gt^2d^4, 4td^2, s, 2gs), s = 1 + 4gt^2d^4(n-1) + 16gt^2d^2e.

    Pure arithmetic, total on any integers: the verifier evaluates it on
    the recorded values as they come.
    """
    s = 1 + 4 * g * t * t * d**4 * (n - 1) + 16 * g * t * t * d * d * e
    return 16 * g * t * t * d**4, 4 * t * d * d, s, 2 * g * s


def degree_and_mukai(n: int, g: int, t: int, d: int, e: int):
    """Closed forms for the polarization degree and the isotropic Mukai vector.

    H2 = 2g(1 + 4gt^2d^4(n-1) + 16gt^2d^2 e), v0 = (16gt^2d^4, 4td^2, s)
    with s the second factor of H2.  Returns the four predicates the
    construction relies on as checks; run_pipeline raises on a false one,
    since all are identities whenever g > 1.
    """
    if min(g, t, d, e) < 1 or n < 2:
        raise ValueError("parameters must be positive with n >= 2")
    r, m, s, H2 = mukai_data(n, g, t, d, e)
    v0 = MukaiVector(r=r, m=m, s=s, H2=H2)
    v0_square = v0.self_pairing()
    stab = g * m  # 4gtd^2
    checks = [
        CheckResult("mukai_isotropic", v0_square == 0, f"v0^2 = {v0_square}"),
        CheckResult("mukai_gcd_rs", gcd(r, s) == 1, f"gcd({r}, {s})"),
        CheckResult("mukai_rank", r >= 2, f"r = {r}"),
        CheckResult(
            "mukai_stability",
            (H2 // 2 + 1) % stab != 0,
            f"{stab} does not divide {H2 // 2 + 1}",
        ),
    ]
    return H2, v0, checks


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


def transport(inst: HKInstance, D, g, t, H2, step_budget: int = 10000, force_epsilon=None):
    """Isometry carrying the canonical degree class minus 2gtd^2*delta onto
    epsilon * (D + 4gtd*B); epsilon = +1 is attempted first.

    Returns (source, target, sigma, epsilon, invariants), where invariants is
    (norm(source), norm(target), div(source), div(target)) for run_pipeline
    to record; isometry_between refuses unequal norms or divisibility != 1.
    """
    source, target = transport_ends(inst, D, g, t, H2)
    source_norm, target_norm = norm(source), norm(target)
    source_div, target_div = divisibility(source), divisibility(target)
    eps_order = (1, -1) if force_epsilon is None else (force_epsilon,)
    last = None
    for eps in eps_order:
        try:
            sigma = isometry_between(source, eps * target, step_budget=step_budget)
        except SearchExhausted as exc:
            last = exc
            continue
        return source, target, sigma, eps, (source_norm, target_norm, source_div, target_div)
    raise last


def pushforward_brauer(inst: HKInstance, sigma: Isometry, g: int, t: int, epsilon: int):
    """Push the class epsilon*h/(4gtd^2) - delta/2 through sigma and negate.

    Returns (alpha_x, verdict) where the verdict confirms alpha_x equals the
    instance's own class [-B/d]; the telescoping identity makes it true, so
    a false verdict is a bug signal.
    """
    _, m, _, H2 = mukai_data(inst.n, g, t, inst.d, inst.e())
    alpha = pushed_class(inst, sigma, H2, g * m, epsilon)
    return alpha, brauer_equal(alpha, b_field_class(inst))


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


# construct refuses a rank factor n! r^n of more than this many bits (about
# 315 000 decimal digits); see the README's CLI section
RANK_FACTOR_MAX_BITS = 2**20


def rank_factor_min_bits(n: int, r: int) -> int:
    """A strict lower bound on the bit length of n! r^n for n, r >= 1, found
    without forming it: n! >= (n/e)^n and e < 4."""
    return n * (n.bit_length() + r.bit_length() - 4)


def check_rank_factor_size(n: int, r: int) -> None:
    """Raise ValueError if n! r^n (n, r >= 1) has over RANK_FACTOR_MAX_BITS bits."""
    if rank_factor_min_bits(n, r) > RANK_FACTOR_MAX_BITS:
        raise ValueError(
            f"rank factor n! r^n would have more than {RANK_FACTOR_MAX_BITS} bits "
            f"(n has {n.bit_length()} bits, r has {r.bit_length()})"
        )


def run_pipeline(
    inst: HKInstance,
    coeff_bound: int = 16,
    u_budget: int = 10**6,
    t_budget: int = 10**6,
    isometry_budget: int = 10000,
) -> ConstructionRecord:
    """Full construction on a valid instance, with every predicate recorded."""
    A = find_A(inst, coeff_bound)
    omega = find_omega(inst, coeff_bound)
    D, g, C1, u = find_D(inst, A, omega, u_budget)
    t = choose_t(inst, D, g, t_budget)
    e = inst.e()
    H2, v0, mukai_checks = degree_and_mukai(inst.n, g, t, inst.d, e)
    source, target, sigma, epsilon, invariants = transport(
        inst, D, g, t, H2, step_budget=isometry_budget
    )
    source_norm, target_norm, source_div, target_div = invariants
    alpha, verdict = pushforward_brauer(inst, sigma, g, t, epsilon)
    d_norm = norm(D)
    checks = [
        CheckResult("divisor_formula", D == A + u * omega),
        CheckResult("divisor_divisibility", divisibility(D) == 1),
        CheckResult("divisor_norm", d_norm == 2 * g, f"norm {d_norm}"),
        CheckResult("divisor_bound", g > inst.C0 * C1, f"g={g} > C0*C1={inst.C0 * C1}"),
        CheckResult("divisor_pairing_w", pair(D, inst.W) == C1),
        CheckResult("divisor_pairing_b", pair(D, inst.B) == 0),
        CheckResult("twist_divisibility", target_div == 1),
    ]
    checks += mukai_checks
    checks += [
        CheckResult("transport_norms", source_norm == target_norm, f"{source_norm}"),
        CheckResult("transport_div_source", source_div == 1),
        CheckResult("transport_div_target", target_div == 1),
        CheckResult("transport_maps", sigma.apply(source) == epsilon * target),
        CheckResult("transport_det", sigma.det() == 1),
        CheckResult("brauer_pushforward", verdict),
    ]
    bad = [c for c in checks if not c.ok]
    if bad:
        raise ConstructionInvariantViolated(f"pipeline check failed: {bad[0].name}")
    check_rank_factor_size(inst.n, v0.r)
    return ConstructionRecord(
        A=A,
        omega=omega,
        D=D,
        u=u,
        C1=C1,
        g=g,
        t=t,
        e=e,
        H2=H2,
        v0=v0,
        source=source,
        target=target,
        sigma=sigma,
        epsilon=epsilon,
        rk_un=rank_factor(inst.n, v0.r),
        alpha_x=alpha,
        checks=tuple(checks),
    )


def wall_for_record(inst: HKInstance, rec: ConstructionRecord) -> obstruction.WallCertificate:
    return obstruction.wall_certificate(rec.g, rec.C1, inst.C0)
