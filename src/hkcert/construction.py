"""The divisor/Mukai-vector pipeline.

Given a valid instance this finds the auxiliary class A, the orthogonal
class omega, the divisor D = A + u*omega with norm 2g beyond the wall
bound, the twist multiplier t, the polarization degree and isotropic Mukai
vector, the transport isometry between the canonical degree class and
D + 4gtd*B, and the pushed-forward B-field class.  Every search takes the
first hit in the documented order, so outputs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd

from . import obstruction
from .errors import ConstructionInvariantViolated, SearchExhausted
from .instance import (
    BrauerClass,
    CheckResult,
    HKInstance,
    b_field_class,
    brauer_equal,
    pic_combination,
)
from .lattice import (
    DELTA_INDEX,
    Isometry,
    LatticeVector,
    RationalClass,
    _gram_times,
    divisibility,
    first_orthogonal_tuple,
    graded_coefficient_tuples,
    isometry_between,
    norm,
    pair,
)


@dataclass(frozen=True)
class MukaiVector:
    r: int
    m: int
    s: int
    H2: int

    def self_pairing(self) -> int:
        return self.m * self.m * self.H2 - 2 * self.r * self.s


@dataclass(frozen=True)
class DualMukaiResult:
    s_hat: "int | None"   # present once 4td^2 divides k
    accept: bool
    reason: str


@dataclass(frozen=True)
class ConstructionRecord:
    A: LatticeVector
    omega: LatticeVector
    D: LatticeVector
    u: int
    C1: int
    g: int
    t: int
    e: int
    H2: int
    v0: MukaiVector
    source: LatticeVector
    target: LatticeVector
    sigma: Isometry
    epsilon: int
    rk_un: int
    alpha_x: BrauerClass
    checks: tuple


def _w_pairings(inst):
    return [pair(p, inst.W) for p in inst.pic_basis]


def find_A(inst: HKInstance, coeff_bound: int = 16) -> LatticeVector:
    """First Picard class (documented order) of divisibility 1 pairing
    nontrivially with W, sign-normalized so the pairing is positive."""
    basis_pairings = [_gram_times(p) for p in inst.pic_basis]
    w_pairings = _w_pairings(inst)
    if all(w == 0 for w in w_pairings):
        raise SearchExhausted(
            "W pairs to zero with the whole Picard basis; no candidate exists "
            f"(coefficient bound {coeff_bound})"
        )
    rho = len(inst.pic_basis)
    rank = inst.lattice.rank
    for coeffs in graded_coefficient_tuples(rho, coeff_bound):
        c1 = sum(c * w for c, w in zip(coeffs, w_pairings))
        if c1 == 0:
            continue
        g = 0
        for i in range(rank):
            g = gcd(g, sum(coeffs[k] * basis_pairings[k][i] for k in range(rho)))
            if g == 1:
                break
        if g != 1:
            continue
        cand = pic_combination(inst, coeffs)
        return cand if c1 > 0 else -cand
    raise SearchExhausted(
        f"no divisibility-1 class pairing with W within coefficient bound {coeff_bound}"
    )


def find_omega(inst: HKInstance, coeff_bound: int = 16) -> LatticeVector:
    """First Picard class (documented order) orthogonal to W with positive norm.

    Only the W-orthogonal coefficient tuples are visited (see
    first_orthogonal_tuple); the hit is the one the full scan finds first.
    """
    w_pairings = _w_pairings(inst)
    if not any(w_pairings):
        raise SearchExhausted(
            "W pairs to zero with the whole Picard basis; no coordinate can be "
            f"solved (coefficient bound {coeff_bound})"
        )
    sub_gram = [[pair(a, b) for b in inst.pic_basis] for a in inst.pic_basis]
    rho = len(inst.pic_basis)

    def positive(coeffs):
        return sum(
            coeffs[i] * coeffs[j] * sub_gram[i][j]
            for i in range(rho)
            for j in range(rho)
        ) > 0

    coeffs = first_orthogonal_tuple(w_pairings, coeff_bound, positive)
    if coeffs is None:
        raise SearchExhausted(
            f"no positive-norm class orthogonal to W within coefficient bound {coeff_bound}"
        )
    return pic_combination(inst, coeffs)


def find_D(inst: HKInstance, A: LatticeVector, omega: LatticeVector, u_budget: int = 10**6):
    """Smallest u >= 1 with div(A + u*omega) = 1 and (A + u*omega)^2 > 2*C0*C1.

    Returns (D, g, C1, u).  Termination is guaranteed in theory; the budget
    turns pathologies into a reported error rather than a wrong answer.
    """
    C1 = pair(A, inst.W)
    ga = _gram_times(A)
    gw = _gram_times(omega)
    a2 = pair(A, A)
    aw = pair(A, omega)
    w2 = pair(omega, omega)
    bound = 2 * inst.C0 * C1
    for u in range(1, u_budget + 1):
        nrm = a2 + 2 * u * aw + u * u * w2
        if nrm <= bound:
            continue
        d = 0
        for pa, pw in zip(ga, gw):
            d = gcd(d, pa + u * pw)
        if d == 1:
            D = A + u * omega
            return D, nrm // 2, C1, u
    raise SearchExhausted(f"no admissible u within budget {u_budget}")


def choose_t(inst: HKInstance, D: LatticeVector, g: int, t_budget: int = 10**6) -> int:
    """Smallest t >= 1 with div(D + 4*g*t*d*B) = 1."""
    gd = _gram_times(D)
    gb = _gram_times(inst.B)
    step = 4 * g * inst.d
    for t in range(1, t_budget + 1):
        dd = 0
        for pd, pb in zip(gd, gb):
            dd = gcd(dd, pd + step * t * pb)
        if dd == 1:
            return t
    raise SearchExhausted(f"no admissible t within budget {t_budget}")


def degree_and_mukai(n: int, g: int, t: int, d: int, e: int):
    """Closed forms for the polarization degree and the isotropic Mukai vector.

    H2 = 2g(1 + 4gt^2d^4(n-1) + 16gt^2d^2 e), v0 = (16gt^2d^4, 4td^2, s)
    with s the second factor of H2.  Records the four predicates the
    construction relies on; any failure raises, since all are identities
    whenever g > 1.
    """
    if min(g, t, d, e) < 1 or n < 2:
        raise ValueError("parameters must be positive with n >= 2")
    s = 1 + 4 * g * t * t * d**4 * (n - 1) + 16 * g * t * t * d * d * e
    H2 = 2 * g * s
    r = 16 * g * t * t * d**4
    m = 4 * t * d * d
    v0 = MukaiVector(r=r, m=m, s=s, H2=H2)
    stab = 4 * g * t * d * d
    checks = [
        CheckResult("mukai_isotropic", v0.self_pairing() == 0, f"v0^2 = {v0.self_pairing()}"),
        CheckResult("mukai_gcd_rs", gcd(r, s) == 1, f"gcd({r}, {s})"),
        CheckResult("mukai_rank", r >= 2, f"r = {r}"),
        CheckResult(
            "mukai_stability",
            (H2 // 2 + 1) % stab != 0,
            f"{stab} does not divide {H2 // 2 + 1}",
        ),
    ]
    bad = [c for c in checks if not c.ok]
    if bad:
        raise ConstructionInvariantViolated(f"mukai check failed: {bad[0].name}")
    return H2, v0, checks


def dual_mukai_check(v0: MukaiVector, k: int, n: int, g: int, t: int, d: int, e: int) -> DualMukaiResult:
    """Constraint on the dual vector (r, k*H^, s^): gcd(r, k) must be 4td^2.

    ACCEPT iff 4td^2 | k, the induced s^ is integral, and k/(4td^2) is
    coprime to r (primitivity of the dual vector).
    """
    del n, e  # the shape of s^ depends only on v0.s once the quotient is known
    q = 4 * t * d * d
    if k % q != 0:
        return DualMukaiResult(None, False, f"{q} does not divide k = {k}")
    ratio = k // q
    s_hat = ratio * ratio * v0.s
    if gcd(abs(ratio), v0.r) != 1:
        return DualMukaiResult(
            s_hat, False, f"gcd({ratio}, {v0.r}) = {gcd(abs(ratio), v0.r)} != 1"
        )
    return DualMukaiResult(s_hat, True, "")


def canonical_degree_class(L, H2: int) -> LatticeVector:
    """The fixed primitive representative e1 + (H2/2) f1 of a degree-H2 class."""
    coords = [0] * L.rank
    coords[0] = 1
    coords[1] = H2 // 2
    return L.vector(coords)


def transport(inst: HKInstance, D, g, t, H2, step_budget: int = 10000, force_epsilon=None):
    """Isometry carrying the canonical degree class minus 2gtd^2*delta onto
    epsilon * (D + 4gtd*B); epsilon = +1 is attempted first."""
    L = inst.lattice
    d = inst.d
    h = canonical_degree_class(L, H2)
    delta = L.basis_vector(DELTA_INDEX)
    source = h - (2 * g * t * d * d) * delta
    target = D + (4 * g * t * d) * inst.B
    if norm(source) != norm(target):
        raise ConstructionInvariantViolated(
            f"norm mismatch: source {norm(source)} vs target {norm(target)}"
        )
    if divisibility(source) != 1 or divisibility(target) != 1:
        raise ConstructionInvariantViolated("source/target must have divisibility 1")
    eps_order = (1, -1) if force_epsilon is None else (force_epsilon,)
    last = None
    for eps in eps_order:
        try:
            sigma = isometry_between(source, eps * target, step_budget=step_budget)
        except SearchExhausted as exc:
            last = exc
            continue
        return source, target, sigma, eps
    raise last


def pushforward_brauer(inst: HKInstance, sigma: Isometry, g: int, t: int, epsilon: int):
    """Push the class epsilon*h/(4gtd^2) - delta/2 through sigma and negate.

    Returns (alpha_x, verdict) where the verdict confirms alpha_x equals the
    instance's own class [-B/d]; the telescoping identity makes it true, so
    a false verdict is a bug signal.
    """
    L = inst.lattice
    d = inst.d
    H2, _, _ = degree_and_mukai(inst.n, g, t, d, inst.e())
    h = canonical_degree_class(L, H2)
    delta = L.basis_vector(DELTA_INDEX)
    den = 4 * g * t * d * d
    q = RationalClass(epsilon * h - (den // 2) * delta, den)
    alpha = BrauerClass(-sigma.apply_rational(q), inst.pic_basis)
    verdict = brauer_equal(alpha, b_field_class(inst))
    return alpha, verdict


def rank_factor(n: int, r: int) -> int:
    """Rank of the induced bundle on the n-point Hilbert scheme product: n! r^n."""
    return factorial(n) * r**n


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
    source, target, sigma, epsilon = transport(
        inst, D, g, t, H2, step_budget=isometry_budget
    )
    alpha, verdict = pushforward_brauer(inst, sigma, g, t, epsilon)
    if not verdict:
        raise ConstructionInvariantViolated("pushed-forward class differs from [-B/d]")
    checks = [
        CheckResult("divisor_formula", D == A + u * omega),
        CheckResult("divisor_divisibility", divisibility(D) == 1),
        CheckResult("divisor_norm", norm(D) == 2 * g, f"norm {norm(D)}"),
        CheckResult("divisor_bound", g > inst.C0 * C1, f"g={g} > C0*C1={inst.C0 * C1}"),
        CheckResult("divisor_pairing_w", pair(D, inst.W) == C1),
        CheckResult("divisor_pairing_b", pair(D, inst.B) == 0),
        CheckResult("twist_divisibility", divisibility(D + 4 * g * t * inst.d * inst.B) == 1),
    ]
    checks += mukai_checks
    checks += [
        CheckResult(
            "transport_norms", norm(source) == norm(target), f"{norm(source)}"
        ),
        CheckResult("transport_div_source", divisibility(source) == 1),
        CheckResult("transport_div_target", divisibility(target) == 1),
        CheckResult("transport_maps", sigma.apply(source) == epsilon * target),
        CheckResult("transport_det", sigma.det() == 1),
        CheckResult("brauer_pushforward", verdict),
    ]
    bad = [c for c in checks if not c.ok]
    if bad:
        raise ConstructionInvariantViolated(f"pipeline check failed: {bad[0].name}")
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
