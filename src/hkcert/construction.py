"""The divisor/Mukai-vector pipeline.

Given a valid instance this finds the auxiliary class A, the orthogonal
class omega, the divisor D = A + u*omega with norm 2g beyond the wall
bound, the twist multiplier t, the polarization degree and isotropic Mukai
vector, the transport isometry between the canonical degree class and
D + 4gtd*B, and the pushed-forward B-field class.  Every search takes the
first hit in the documented order, so outputs are reproducible.  That order
and the B-field shift live here too: verify runs neither.
"""

import itertools
from math import gcd
from operator import add, mul

from . import obstruction, snf
from .errors import ConstructionInvariantViolated, SearchExhausted
from .instance import (
    BUDGETS,
    CheckResult,
    HKInstance,
    MukaiVector,
    b_field_class,
    brauer_equal,
    mukai_data,
    pushed_class,
    rank_factor,
    rank_factor_min_bits,
    transport_ends,
)
from .lattice import (
    GramLattice,
    Isometry,
    LatticeVector,
    _gram_times,
    divisibility,
    is_primitive,
    norm,
    pair,
)
from .record import Record


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


# ---------------------------------------------------------------------------
# search-order enumeration

def graded_coefficient_tuples(length, bound):
    """Yield nonzero coefficient tuples in the documented search order.

    Ascending grade (sum of absolute values), then absolute-value tuples in
    ascending lexicographic order, then sign patterns over the nonzero
    entries with + before - (leftmost entry varying slowest).  Every search
    in this package that takes "the first hit" iterates in this order, which
    is what makes recorded certificates reproducible bit for bit.
    ``search_order_key`` sorts any set of such tuples into the same order.
    """
    for s in range(1, length * bound + 1):
        for abs_t in _abs_tuples(length, s, bound):
            nz = [i for i, c in enumerate(abs_t) if c]
            for signs in itertools.product((1, -1), repeat=len(nz)):
                t = list(abs_t)
                for i, sg in zip(nz, signs):
                    t[i] *= sg
                yield tuple(t)


def search_order_key(coeffs):
    """Sort key of the documented search order: grade, absolute-value tuple,
    then the signs of the nonzero entries with + before -."""
    return (
        sum(map(abs, coeffs)),
        tuple(map(abs, coeffs)),
        tuple(c < 0 for c in coeffs if c),
    )


def first_orthogonal_tuple(weights, bound, accept):
    """First tuple of graded_coefficient_tuples(len(weights), bound) with
    sum c_i w_i = 0 that satisfies ``accept``, or None.  Some weight must be
    nonzero.

    Only orthogonal tuples are visited.  The coordinate j with the largest
    |w_j| is solved, and one free coordinate k is stepped: the one with the
    largest step m = |w_j| / gcd(w_j, w_k).  The other coordinates form a
    prefix with pairing s, run through the zero prefix and then ascending
    grade f.  c_j = -(s + x w_k) / w_j is an integer iff gcd(w_j, w_k)
    divides s and x lies in one residue class mod m, so x steps through that
    class directly.  This reaches every nonzero orthogonal tuple exactly once
    (the innermost-interval step of Fincke-Pohst, for one linear equation).
    The result is the search_order_key minimum of the accepted ones, which is
    the generator's first hit.  A tuple's grade is at least f + |x|, so the
    scan stops once f exceeds the grade of the best hit so far, and x stays
    within that grade less f.
    """
    rho = len(weights)
    j = max(range(rho), key=lambda i: abs(weights[i]))
    wj = weights[j]
    if wj == 0:
        raise ValueError("at least one weight must be nonzero")
    if rho == 1:
        return None  # only the zero tuple is orthogonal
    k = max((i for i in range(rho) if i != j), key=lambda i: abs(wj) // gcd(wj, weights[i]))
    wk = weights[k]
    g = gcd(wj, wk)
    m = abs(wj) // g
    inverse = pow(wk // g, -1, m)
    prefix_at = [i for i in range(rho) if i not in (j, k)]
    prefix_weights = [weights[i] for i in prefix_at]
    best = None
    top = rho * bound  # the grade of the best hit so far, once there is one
    prefixes = itertools.chain([(0,) * (rho - 2)], graded_coefficient_tuples(rho - 2, bound))
    for prefix in prefixes:
        f = sum(map(abs, prefix))
        if f > top:
            break
        s = sum(map(mul, prefix, prefix_weights))
        if s % g:
            continue
        coeffs = [0] * rho
        for i, c in zip(prefix_at, prefix):
            coeffs[i] = c
        lim = min(bound, top - f)
        x0 = -s // g * inverse  # c_j is an integer iff x = x0 (mod m)
        for x in range(-lim + (x0 + lim) % m, lim + 1, m):
            cj = -(s + x * wk) // wj
            grade = f + abs(x) + abs(cj)
            if abs(cj) > bound or grade > top or grade == 0:
                continue
            coeffs[k], coeffs[j] = x, cj
            cand = tuple(coeffs)
            key = search_order_key(cand)
            if (best is None or key < best_key) and accept(cand):
                best, best_key, top = cand, key, grade
    return best


def _abs_tuples(length, total, bound):
    if length == 1:
        if 0 <= total <= bound:
            yield (total,)
        return
    for first in range(0, min(total, bound) + 1):
        for rest in _abs_tuples(length - 1, total - first, bound):
            yield (first,) + rest


def linear_combination(L: GramLattice, coeffs, vectors) -> LatticeVector:
    """sum_i c_i v_i in L (the zero vector when every c_i is 0)."""
    out = [0] * L.rank
    for c, v in zip(coeffs, vectors):
        if c:
            for i, x in snf.sparse(v.coords):
                out[i] += c * x
    return LatticeVector(tuple(out), L)


def gram_of(vectors):
    """The Gram matrix ((v_i, v_j)): G v_i once per vector, then the upper
    triangle, mirrored; against a unit vector e_k the entry is (G v_i)_k."""
    coords = [v.coords for v in vectors]
    units = [x.index(1) if x.count(0) == len(x) - 1 and 1 in x else None for x in coords]
    gram = [[0] * len(vectors) for _ in vectors]
    for i, v in enumerate(vectors):
        gv = _gram_times(v)
        for j in range(i, len(vectors)):
            k = units[j]
            gram[i][j] = gram[j][i] = gv[k] if k is not None else sum(map(mul, gv, coords[j]))
    return gram


def form_evaluator(gram):
    """The function c -> sum_ij c_i c_j gram_ij, the norm of sum_i c_i v_i
    for a symmetric gram = gram_of(v).  The nonzero upper-triangle terms are
    read once, the off-diagonal ones doubled, so that a value costs one
    product per term."""
    terms = [
        (i, j, x if i == j else 2 * x)
        for i, row in enumerate(gram)
        for j, x in enumerate(row[i:], i)
        if x
    ]

    def value(coeffs):
        total = 0
        for i, j, x in terms:
            total += x * coeffs[i] * coeffs[j]
        return total

    return value


def gram_signature(G):
    """(n_plus, n_minus, n_zero) of a symmetric integer matrix, exactly.

    Lagrange's reduction in integers (Sylvester's law of inertia): a nonzero
    diagonal pivot p splits off one line, and what remains is p times the
    Schur complement, so the k-th line has the sign of p_1 ... p_k.  On a zero
    diagonal, e_i + e_j with G_ij != 0 is the pivot, its norm being 2 G_ij; a
    remainder that is all zero is the radical.
    """
    rest = [list(row) for row in G]
    sign, neg = 1, 0
    while rest:
        i = next((k for k, row in enumerate(rest) if row[k]), None)
        if i is None:
            hit = next(((i, j) for i, row in enumerate(rest) for j, x in enumerate(row) if x), None)
            if hit is None:
                break
            i, j = hit
            # the basis change e_i -> e_i + e_j, on the rows and then the columns
            rest[i] = list(map(add, rest[i], rest[j]))
            for row in rest:
                row[i] += row[j]
        top = rest.pop(i)
        p = top.pop(i)
        sign = -sign if p < 0 else sign
        neg += sign < 0
        rest = [[p * x - row[i] * y for x, y in zip(row[:i] + row[i + 1:], top)] for row in rest]
    zero = len(rest)
    return len(G) - neg - zero, neg, zero


def w_pairings(inst: HKInstance):
    """(p, W) for each Picard basis vector p; SearchExhausted if all are zero,
    as neither find_A nor find_omega then has a candidate."""
    weights = [pair(p, inst.W) for p in inst.pic_basis]
    if not any(weights):
        raise SearchExhausted("W pairs to zero with the whole Picard basis; no candidate exists")
    return weights


def find_A(inst: HKInstance, coeff_bound: int = BUDGETS["coeff_bound"]) -> LatticeVector:
    """First Picard class (documented order) of divisibility 1 pairing
    nontrivially with W, sign-normalized so the pairing is positive."""
    weights = w_pairings(inst)
    for coeffs in graded_coefficient_tuples(len(weights), coeff_bound):
        c1 = sum(c * w for c, w in zip(coeffs, weights))
        if c1:
            cand = linear_combination(inst.lattice, coeffs, inst.pic_basis)
            if divisibility(cand) == 1:
                return cand if c1 > 0 else -cand
    raise SearchExhausted(
        f"no divisibility-1 class pairing with W within coefficient bound {coeff_bound}"
    )


def find_omega(inst: HKInstance, coeff_bound: int = BUDGETS["coeff_bound"]) -> LatticeVector:
    """First Picard class (documented order) orthogonal to W with positive norm.

    Only the W-orthogonal coefficient tuples are visited (see
    first_orthogonal_tuple); the hit is the one the full scan finds first.
    """
    weights = w_pairings(inst)
    gram = gram_of(inst.pic_basis)
    value = form_evaluator(gram)
    # a Picard form with no positive direction has no class to find: say so
    # at once, not after every tuple of the coefficient box
    coeffs = None
    if gram_signature(gram)[0]:
        coeffs = first_orthogonal_tuple(weights, coeff_bound, lambda c: value(c) > 0)
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


def find_D(inst: HKInstance, A: LatticeVector, omega: LatticeVector, u_budget: int = BUDGETS["u_budget"]):
    """Smallest u >= 1 with div(A + u*omega) = 1 and (A + u*omega)^2 > 2*C0*C1.

    Returns (D, g, C1, u).  Termination is guaranteed in theory; the budget
    turns pathologies into a reported error rather than a wrong answer.
    """
    C1 = pair(A, inst.W)
    a2, aw, w2 = pair(A, A), pair(A, omega), pair(omega, omega)
    bound = 2 * inst.C0 * C1

    def norm_at(u):  # (A + u omega)^2
        return a2 + 2 * u * aw + u * u * w2

    us = (u for u in range(1, u_budget + 1) if norm_at(u) > bound)
    u = _first_unit_divisibility(_gram_times(A), _gram_times(omega), us)
    if u is None:
        raise SearchExhausted(f"no admissible u within budget {u_budget}")
    return A + u * omega, norm_at(u) // 2, C1, u


def choose_t(inst: HKInstance, D: LatticeVector, g: int, t_budget: int = BUDGETS["t_budget"]) -> int:
    """Smallest t >= 1 with div(D + 4*g*t*d*B) = 1."""
    step = 4 * g * inst.d
    gb = [step * p for p in _gram_times(inst.B)]
    t = _first_unit_divisibility(_gram_times(D), gb, range(1, t_budget + 1))
    if t is None:
        raise SearchExhausted(f"no admissible t within budget {t_budget}")
    return t


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


# ---------------------------------------------------------------------------
# Eichler transvections
#
# t(e, a): x -> x - (a,x) e + (e,x) a - (a,a)/2 (e,x) e, for isotropic e
# orthogonal to a with (a,a) even, is an isometry of determinant +1 that acts
# trivially on the discriminant group.  An op is its sparse record
# (e, a, Ge, Ga, (a,a)/2): each vector as its nonzero (index, value) pairs,
# Ge and Ga the pairings with the basis.

def _transvect(op, x):
    """Apply t(e, a) to the coordinate list x, in place; touches only the
    supports of e, a, Ge and Ga."""
    e, a, ge, ga, half = op
    ax = ex = 0
    for j, p in ga:
        ax += p * x[j]
    for j, p in ge:
        ex += p * x[j]
    ce = -ax - half * ex
    if ce:
        for i, c in e:
            x[i] += ce * c
    if ex:
        for i, c in a:
            x[i] += ex * c


def _inverse(op):
    # t(e, a)^-1 = t(e, -a)
    e, a, ge, ga, half = op
    return e, tuple((i, -c) for i, c in a), ge, tuple((j, -p) for j, p in ga), half


def _isometry_of_ops(ops, inverse_ops, L):
    """The isometry that applies ``ops`` in order, then undoes ``inverse_ops``.

    Only the columns of basis vectors in the supports of some Ge or Ga are
    replayed: any other basis vector pairs to zero with every e and a, so
    every op fixes it and its column stays the unit column.
    """
    undo = [_inverse(op) for op in reversed(inverse_ops)]
    moved = {j for _, _, ge, ga, _ in itertools.chain(ops, inverse_ops) for j, _ in ge + ga}
    cols = []
    for j in range(L.rank):
        x = [0] * L.rank
        x[j] = 1
        if j in moved:
            for op in ops:
                _transvect(op, x)
            for op in undo:
                _transvect(op, x)
        cols.append(x)
    return Isometry(tuple(zip(*cols)), L)


def _hyperbolic_pairs(L: GramLattice):
    # consecutive basis vectors spanning an orthogonal summand U
    rows = L.sparse_rows
    return [
        (i, i + 1)
        for i in range(L.rank - 1)
        if rows[i] == ((i + 1, 1),) and rows[i + 1] == ((i, 1),)
    ]


def _reduction_ops(pairs, budget, v: LatticeVector, half_norm: int):
    """The op list taking v, primitive of divisibility 1 and norm 2 * half_norm, to e1 + half_norm f1.

    Works entirely through Eichler transvections t(e, a) with e one of the
    four isotropic basis vectors of the first two hyperbolic planes, and a
    with a few nonzero entries, so each op is built from e's basis index and
    a's (index, value) pairs.  The recorded op list is replayed (or replayed
    inverted, a -> -a in reverse order) to build the final isometry.
    """
    (ie1, if1), (ie2, if2) = pairs[0], pairs[1]
    r_indices = [k for k in range(v.lattice.rank) if k not in (ie1, if1, ie2, if2)]
    rows = v.lattice.sparse_rows
    ops = []
    cur = list(v.coords)

    def push(ie, a):
        """Record t(e, a) for e the basis vector ie and apply it to cur; a is
        given as (index, value) pairs in ascending index order, zeros allowed."""
        a = tuple((i, c) for i, c in a if c)
        if not a:
            return
        if len(ops) >= budget:
            raise SearchExhausted(
                f"isometry reduction exceeded the step budget of {budget} transvections"
            )
        ga = {}
        for i, c in a:
            for j, r in rows[i]:
                ga[j] = ga.get(j, 0) + c * r
        op = (
            ((ie, 1),),
            a,
            rows[ie],
            tuple(sorted((j, p) for j, p in ga.items() if p)),
            sum(c * ga.get(i, 0) for i, c in a) // 2,
        )
        ops.append(op)
        _transvect(op, cur)

    # Euclidean descent on p2 = (e2, v) until p2 = 1.  The planes are (e, f)
    # with Gram rows ((f, 1),) and ((e, 1),), so (e, v) is v's f-coordinate
    # and (f, v) its e-coordinate.  The five planar moves, as push(e, a), and
    # their effects on (p1, q1, p2, q2) = ((e1,v), (f1,v), (e2,v), (f2,v)):
    #   E1: push(ie1, [(if2, k)])   p2 += k*p1 ; q1 -= k*q2
    #   E2: push(ie2, [(if1, k)])   p1 += k*p2 ; q2 -= k*q1
    #   F1: push(if1, [(if2, k)])   p2 += k*q1 ; p1 -= k*q2
    #   G2: push(ie2, [(ie1, k)])   q1 += k*p2 ; q2 -= k*p1
    #   H2: push(if2, [(ie1, k)])   q1 += k*q2 ; p2 -= k*p1
    # Every pass through the main branch strictly shrinks |p2|, so this
    # terminates well inside the budget.
    while True:
        p1, q1, p2, q2 = cur[if1], cur[ie1], cur[if2], cur[ie2]
        if p2 == 1:
            break
        if p2 == 0:
            if p1 != 0:
                push(ie1, [(if2, 1)])  # E1
            elif q1 != 0:
                push(if1, [(if2, 1)])  # F1
            elif q2 != 0:
                push(if2, [(ie1, 1)])  # H2
            else:
                # all four plane pairings vanish; divisibility 1 lives in
                # the rest of the lattice, so solve (a, v) = -1 there
                vals = [sum(r * cur[j] for j, r in rows[idx]) for idx in r_indices]
                coeffs = _extended_gcd_combination(vals)
                if sum(c * val for c, val in zip(coeffs, vals)) != 1:
                    raise ConstructionInvariantViolated("divisibility-1 precondition violated")
                push(if2, [(idx, -c) for idx, c in zip(r_indices, coeffs)])
            continue
        if p2 == -1:
            push(ie2, [(ie1, q1 - 1)])  # G2: q1 -> 1
            push(if1, [(if2, 2)])       # F1: p2 -> 1
            continue
        if p1 % p2 != 0:
            push(ie2, [(if1, -(p1 // p2))])  # E2
            push(ie1, [(if2, _step_to_residue(p2, cur[if1]))])  # E1
            continue
        if q1 % p2 != 0:
            push(ie2, [(ie1, -(q1 // p2))])  # G2
            push(if1, [(if2, _step_to_residue(p2, cur[ie1]))])  # F1
            continue
        if q2 % p2 != 0:
            # zero out p1 first (exact multiple of p2) so the H2 side
            # effect p2 -= p1 cannot move p2
            push(ie2, [(if1, -(p1 // p2))])  # E2
            push(if2, [(ie1, 1)])  # H2
            continue
        bad = next((idx for idx in r_indices if sum(r * cur[j] for j, r in rows[idx]) % p2), None)
        if bad is None:
            raise ConstructionInvariantViolated("pairing gcd exceeded 1 during reduction")
        push(ie1, [(bad, 1)])
        # q1 is now nonzero mod p2; the next pass shrinks |p2|

    # kill the part outside the two hyperbolic planes
    push(ie2, [(k, -cur[k]) for k in r_indices])
    # kill the first-plane coefficients
    push(ie2, [(ie1, -cur[ie1]), (if1, -cur[if1])])
    # move e2-plane canonical form into the first plane
    push(ie2, [(ie1, 1)])
    push(if1, [(ie2, -half_norm), (if2, -1)])
    return ops


def _step_to_residue(value, modulus):
    # multiplier k with 0 < value + k*modulus <= |modulus|
    t = value % abs(modulus)
    if t == 0:
        t = abs(modulus)
    return (t - value) // modulus


def _extended_gcd_combination(vals):
    # coefficients c with sum(c_i * vals_i) = gcd(vals) >= 0
    coeffs = [0] * len(vals)
    g = 0
    for i, v in enumerate(vals):
        gg, x, y = snf._xgcd(g, v)
        coeffs = [c * x for c in coeffs]
        coeffs[i] = y
        g = gg
    return coeffs


def isometry_between(v: LatticeVector, w: LatticeVector, step_budget: int = BUDGETS["isometry_budget"]) -> Isometry:
    """A transvection-generated isometry sending v to w, exactly.

    Both vectors must be primitive of divisibility 1 with equal norms, and
    the lattice must contain two orthogonal hyperbolic planes among its
    basis blocks.  The output has determinant +1 and acts trivially on the
    discriminant group; run_pipeline checks that it sends v to w.
    """
    if v.lattice != w.lattice:
        raise ValueError("vectors live in different lattices")
    L = v.lattice
    nv, nw = norm(v), norm(w)
    if nv != nw:
        raise ValueError(f"norm mismatch: {nv} != {nw}")
    dv, dw = divisibility(v), divisibility(w)
    if dv != dw:
        raise ValueError(f"divisibility mismatch: {dv} != {dw}")
    if dv != 1:
        raise ValueError(f"only divisibility 1 is implemented, got {dv}")
    pairs = _hyperbolic_pairs(L)
    if len(pairs) < 2:
        raise ValueError("lattice needs two orthogonal hyperbolic planes among its basis blocks")
    if any(L.gram[i][i] % 2 for i in range(L.rank)):
        raise ValueError("lattice must be even")
    if v == w:
        return _isometry_of_ops([], (), L)
    ops_v = _reduction_ops(pairs, step_budget, v, nv // 2)
    ops_w = _reduction_ops(pairs, step_budget, w, nv // 2)
    return _isometry_of_ops(ops_v, ops_w, L)


def transport(inst: HKInstance, D, g, t, H2, step_budget: int = BUDGETS["isometry_budget"], force_epsilon=None):
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


# construct refuses a rank factor n! r^n of more than this many bits (about
# 315 000 decimal digits); see the README's CLI section
RANK_FACTOR_MAX_BITS = 2**20


def check_rank_factor_size(n: int, r: int) -> None:
    """Raise ValueError if n! r^n (n, r >= 1) has over RANK_FACTOR_MAX_BITS bits."""
    if rank_factor_min_bits(n, r) > RANK_FACTOR_MAX_BITS:
        raise ValueError(
            f"rank factor n! r^n would have more than {RANK_FACTOR_MAX_BITS} bits "
            f"(n has {n.bit_length()} bits, r has {r.bit_length()})"
        )


def run_pipeline(
    inst: HKInstance,
    coeff_bound: int = BUDGETS["coeff_bound"],
    u_budget: int = BUDGETS["u_budget"],
    t_budget: int = BUDGETS["t_budget"],
    isometry_budget: int = BUDGETS["isometry_budget"],
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
        CheckResult("transport_det", sigma.det() == 1 and sigma.orientation() == 1),
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


# ---------------------------------------------------------------------------
# B-field shift

def orthogonal_complement_basis(L: GramLattice, vectors):
    """Canonical basis of {x : (x, v) = 0 for all v}, as HNF rows.

    The pairing rows G v are zero outside the columns T that some v touches,
    so the complement is the kernel K of their T columns plus the unit
    vectors of the other coordinates.  For j in T, the rows ((G v)_j for
    each v, then e_j on T) span the pairs (((x, v) for each v), x); the rows
    of their HNF whose pairing entries vanish are the HNF of K (Cohen,
    GTM 138, 2.4.3).  Put back in T, they and the unit vectors have
    distinct pivots, each its row's first nonzero entry and positive, so
    descending order is ascending pivot column.
    """
    rows = [_gram_times(v) for v in vectors]
    touched = sorted({j for row in rows for j, x in enumerate(row) if x})
    n, k = L.rank, len(rows)
    basis = [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in set(range(n)).difference(touched)]
    for h in snf.hermite_rows([[row[j] for row in rows] + [int(i == j) for i in touched] for j in touched]):
        if not any(h[:k]):
            x = [0] * n
            for j, c in zip(touched, h[k:]):
                x[j] = c
            basis.append(tuple(x))
    return [LatticeVector(x, L) for x in sorted(basis, reverse=True)]


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
    candidates = graded_coefficient_tuples(len(comp), _NORMALIZE_COEFF_BOUND)
    tried = 0
    for tried, coeffs in enumerate(itertools.islice(candidates, _NORMALIZE_CANDIDATES), 1):
        cand = inst.B - inst.d * linear_combination(inst.lattice, coeffs, comp)
        if norm(cand) > 0 and is_primitive(cand):
            return inst.replace(B=cand)
    raise SearchExhausted(
        f"no orthogonal shift with positive norm within coefficient bound "
        f"{_NORMALIZE_COEFF_BOUND} ({tried} candidates tried)"
    )
