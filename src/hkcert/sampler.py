"""The seeded instance sampler behind the property suites, the benchmark and
``hkcert random``: ``random_instance`` and the rejection tests it runs.

Neither construct nor verify imports this module.
"""

from __future__ import annotations

import random
from itertools import product
from operator import add, mul

from . import snf
from .construction import (
    form_evaluator,
    gram_of,
    linear_combination,
    orthogonal_complement_basis,
)
from .errors import SearchExhausted
from .instance import BUDGETS, HKInstance
from .lattice import DELTA_INDEX, build_lambda, is_primitive


_PIC_SUPPORT = (0, 1, 2, 3, DELTA_INDEX)


def random_instance(n: int, pic_rank: int, C0: int, d_max: int, seed: int) -> HKInstance:
    """Deterministic-in-seed instance sampler.

    Picard vectors have entries in [-3, 3] supported on the first two
    hyperbolic planes and delta; rejection runs until the Picard form has
    signature (1, rank-1), the sublattice is saturated, a wall class of
    norm in (-C0, 0) exists, a positive-norm primitive B can be drawn
    from the orthogonal complement, and ``find_omega`` has a candidate
    within construct's coefficient bound.  ``_try_sample`` decides each
    sample once, and runs no stage of construct: its rejections imply every
    check of ``validate_instance``.
    """
    check_parameters(n, pic_rank, C0, d_max)
    rng = random.Random(seed)
    L = build_lambda(n)
    for _ in range(400):
        inst = _try_sample(rng, L, n, pic_rank, C0, d_max)
        if inst is not None:
            return inst
    raise SearchExhausted(
        f"instance generation failed after 400 attempts (seed {seed}, n={n}, "
        f"pic_rank={pic_rank}, C0={C0}, d_max={d_max})"
    )


def check_parameters(n: int, pic_rank: int, C0: int, d_max: int) -> None:
    """Raise ValueError unless random_instance can sample with these parameters."""
    if not 2 <= n <= 6:
        raise ValueError(f"n must be in [2, 6], got {n}")
    if not 2 <= pic_rank <= 4:
        raise ValueError(f"pic_rank must be in [2, 4], got {pic_rank}")
    if C0 < 1 or d_max < 1:
        raise ValueError("C0 and d_max must be positive")
    # W lies in an even lattice, so its norm is even and (-C0, 0) must hold -2
    if C0 < 3:
        raise ValueError(f"C0 must be at least 3 for an even wall norm to lie in (-C0, 0), got {C0}")


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


def _try_sample(rng, L, n, pic_rank, C0, d_max):
    # a returned sample passes each check of validate_instance by a rejection
    # here or by how it is built, so nothing re-checks it:
    # - the signature, then _saturated: pic_independent and pic_saturated;
    # - the W loop: w_norm_bound and w_primitive;
    # - _sample_b: b_norm_positive and b_primitive;
    # - W a Picard combination, B from the complement: w_in_pic and b_orthogonal_pic;
    # - random_instance's ranges and L = build_lambda(n): params_in_range,
    #   pic_rank, lattice_matches_n and vectors_same_lattice
    randint = rng.randint
    pic = []
    for _ in range(pic_rank):
        coords = [0] * L.rank
        for idx in _PIC_SUPPORT:
            coords[idx] = randint(-3, 3)
        pic.append(L.vector(coords))
    sub_gram = gram_of(pic)
    if gram_signature(sub_gram) != (1, pic_rank - 1, 0):
        return None
    # the Picard matrix's other rows are zero and add nothing to the span
    if not _saturated([[p.coords[i] for p in pic] for i in _PIC_SUPPORT], pic_rank):
        return None

    # the Picard form is read once for up to 80 draws of W
    w_norm = form_evaluator(sub_gram)
    draws = range(pic_rank)
    W = None
    for _ in range(80):
        coeffs = [randint(-3, 3) for _ in draws]
        if not 0 < -w_norm(coeffs) < C0:
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
    d = randint(1, d_max)
    # find_omega must have a candidate within construct's coefficient bound:
    # the kernel test, where W = sum c_i p_i pairs with p_j to (sub_gram c)_j
    if not _kernel_has_bounded_positive(sub_gram, snf.mat_vec(sub_gram, coeffs)):
        return None
    return HKInstance(n=n, pic_basis=tuple(pic), W=W, B=B, d=d, C0=C0)


def _sample_b(rng, L, comp):
    # mix at most three complement vectors; positive norm needs a hyperbolic
    # contribution, so weight retries generously.  A candidate's norm is
    # summed over its picks off the complement's Gram matrix, and only a
    # candidate of positive norm (so nonzero) is built
    gram = gram_of(comp)
    randint, sample = rng.randint, rng.sample
    k_max, positions = min(3, len(comp)), range(len(comp))
    for _ in range(120):
        k = randint(1, k_max)
        picks = sample(positions, k)
        coeffs = [randint(-2, 2) for _ in picks]
        value = 0
        for a, ca in zip(picks, coeffs):
            row = gram[a]
            for b, cb in zip(picks, coeffs):
                value += ca * cb * row[b]
        if value <= 0:
            continue
        cand = linear_combination(L, coeffs, [comp[idx] for idx in picks])
        if is_primitive(cand):
            return cand
    return None


def _saturated(rows, rank):
    # the columns of an integer matrix with `rank` columns are independent
    # and span a saturated sublattice iff its rows span Z^rank, that is iff
    # their Hermite form is the identity
    return snf.hermite_rows(rows) == snf.identity_matrix(rank)


def kernel_basis(snf_data):
    """Basis of {x in Z^n : A x = 0}: the columns of V past the rank (d_i | d_{i+1} puts D's zeros last)."""
    _, D, V = snf_data
    return [[row[j] for row in V] for j in range(sum(1 for d in snf.snf_diagonal(D) if d), len(V))]


def _kernel_has_bounded_positive(sub_gram, weights):
    # whether a nonzero k in [-12, 12]^K over the kernel basis of the weights
    # gives Picard coefficients c = sum k_i kern_i of positive norm, each |c_j|
    # within construct's coeff_bound.  With all but the last k_i fixed, the
    # line c = base + x step meets the bounds in an interval of x, and its
    # norm is a x^2 + b x + c
    kern = kernel_basis(snf.smith_normal_form([weights]))
    if not kern:
        return False
    cols = list(zip(*kern))
    step = kern[-1]
    value = form_evaluator(sub_gram)
    a = value(step)
    g_step = snf.mat_vec(sub_gram, step)
    for prefix in product(range(-12, 13), repeat=len(kern) - 1):
        # map stops at the shorter prefix, so each base_j leaves step out
        base = [sum(map(mul, col, prefix)) for col in cols]
        lo, hi = line_box_interval(base, step, BUDGETS["coeff_bound"], -12, 12)
        b = 2 * sum(map(mul, base, g_step))
        if positive_on_interval(a, b, value(base), lo, hi):
            return True
    return False


def line_box_interval(base, step, bound, lo, hi):
    """(lo', hi'): the integers x in [lo, hi] with |base_i + x step_i| <= bound
    for every i, an interval since each constraint is one; empty when
    lo' > hi'."""
    for b, s in zip(base, step):
        if s < 0:
            b, s = -b, -s  # |b + x s| = |-b - x s|
        if s:
            lo = max(lo, -((bound + b) // s))
            hi = min(hi, (bound - b) // s)
        elif abs(b) > bound:
            return 1, 0
    return lo, hi


def positive_on_interval(a, b, c, lo, hi):
    """Whether a x^2 + b x + c > 0 for some integer x with lo <= x <= hi.

    The maximum on the interval is at an end, or, for a < 0, at the vertex
    -b / 2a; over the integers, at its floor or ceiling.  Exact: only
    integer arithmetic (the innermost-interval step of Fincke-Pohst).
    """
    if lo > hi:
        return False
    xs = [lo, hi]
    if a < 0:
        v = b // (-2 * a)  # floor of the vertex
        xs += [x for x in (v, v + 1) if lo < x < hi]
    return any((a * x + b) * x + c > 0 for x in xs)
