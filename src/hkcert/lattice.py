"""Exact arithmetic for the integral lattices behind the certificate pipeline.

Basis conventions, fixed once and used by every serialization
---------------------------------------------------------------

The rank-23 lattice ``build_lambda(n)`` has the ordered basis

    e1, f1, e2, f2, e3, f3,            three hyperbolic planes U
    a1..a8,                            first negative-definite E8 block
    b1..b8,                            second negative-definite E8 block
    delta                              with delta*delta = 2 - 2n

Each hyperbolic plane U has Gram [[0, 1], [1, 0]].  The E8 block carries
the negated Cartan matrix of the E8 diagram with nodes numbered so that
nodes 1-3-4-5-6-7-8 form a chain and node 2 attaches to node 4:

    diag = -2;  +1 exactly at the pairs (1,3), (2,4), (3,4), (4,5),
    (5,6), (6,7), (7,8)  (1-based node numbers).

``build_k3_lattice()`` is the same basis without delta (rank 22,
unimodular).  Vectors serialize as integer arrays in this basis order,
Gram matrices as row-major integer arrays.

All values here are immutable and all operations are pure functions, so
everything is safe to share across threads.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd
from operator import mul

from . import snf
from .record import Record
from .snf import smith_normal_form  # noqa: F401  (re-exported for callers)


class GramLattice(Record):
    """An integral lattice presented by an exact Gram matrix.

    Identity is the Gram matrix; the label is a display name only, left out
    of equality and of the hash, which is computed once since every cache
    keyed by a lattice hashes it again.  ``sparse_rows[i]`` lists the
    nonzero entries of Gram row i as (column, value) pairs; every pairing
    goes through it (the rows of ``build_lambda`` hold at most 4 nonzeros
    each).
    """

    __slots__ = ("rank", "gram", "label", "sparse_rows", "_hash")
    _fields = ("rank", "gram", "label")

    def __init__(self, rank, gram, label=""):
        g = tuple(tuple(int(x) for x in row) for row in gram)
        if len(g) != rank or any(len(row) != rank for row in g):
            raise ValueError("gram matrix shape does not match rank")
        for i in range(rank):
            for j in range(i + 1, rank):
                if g[i][j] != g[j][i]:
                    raise ValueError("gram matrix is not symmetric")
        # det mod the prime 2^31 - 1 first: a nonzero residue settles it, and
        # only a zero one needs the exact determinant
        if rank and not snf.det_bareiss(g, 2**31 - 1) and not snf.det_bareiss(g):
            raise ValueError("gram matrix is degenerate")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "sparse_rows", tuple(_sparse(row) for row in g))
        object.__setattr__(self, "_hash", hash(g))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self.gram == other.gram

    def __hash__(self):
        return self._hash

    def vector(self, coords) -> "LatticeVector":
        return LatticeVector(tuple(map(int, coords)), self)

    def basis_vector(self, i: int) -> "LatticeVector":
        return self.vector([1 if j == i else 0 for j in range(self.rank)])

    def zero(self) -> "LatticeVector":
        return self.vector([0] * self.rank)


class LatticeVector(Record):
    __slots__ = _fields = ("coords", "lattice")

    def __init__(self, coords, lattice):
        if type(coords) is not tuple:
            coords = tuple(int(c) for c in coords)
        if len(coords) != lattice.rank:
            raise ValueError("coordinate length does not match lattice rank")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "lattice", lattice)

    def _same(self, other):
        if not isinstance(other, LatticeVector) or other.lattice != self.lattice:
            raise ValueError("vectors live in different lattices")

    def __add__(self, other):
        self._same(other)
        return LatticeVector(tuple(a + b for a, b in zip(self.coords, other.coords)), self.lattice)

    def __sub__(self, other):
        self._same(other)
        return LatticeVector(tuple(a - b for a, b in zip(self.coords, other.coords)), self.lattice)

    def __neg__(self):
        return LatticeVector(tuple(-a for a in self.coords), self.lattice)

    def __rmul__(self, k):
        k = int(k)
        return LatticeVector(tuple(k * a for a in self.coords), self.lattice)

    def is_zero(self) -> bool:
        return not any(self.coords)


class RationalClass(Record):
    """numerator / denominator with gcd(denominator, content(numerator)) = 1."""

    __slots__ = _fields = ("numerator", "denominator")

    def __init__(self, numerator, denominator):
        den = int(denominator)
        if den == 0:
            raise ValueError("denominator must be nonzero")
        num = numerator
        if den < 0:
            den, num = -den, -num
        g = gcd(den, *num.coords)
        if g > 1:
            num = num.lattice.vector([c // g for c in num.coords])
            den //= g
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    def __sub__(self, other):
        a, b = self.denominator, other.denominator
        num = b * self.numerator - a * other.numerator
        return RationalClass(num, a * b)


class Isometry(Record):
    """Integer matrix acting on coordinate columns, preserving the Gram form.

    Construction checks M^T G M = G exactly.  Since the lattice is
    nondegenerate, that identity gives det(M)^2 = 1, so every Isometry is
    unimodular without a separate determinant check.  Let S be the moved
    columns (M e_j != e_j).  Both sides are symmetric, so it suffices to
    compare the entries (j, i) with j in S or i in S, and of those with both
    in S only the upper triangle i >= j; with neither in S they agree, as
    e_j^T G e_i = G_ji.  For j in S the vector G M e_j is formed once.  At a
    fixed column i (M e_i = e_i) the entry is its coordinate
    (M^T G M)_ji = (G M e_j)_i; at a moved i >= j it is the pairing of
    G M e_j with M e_i.  That is k(k+1)/2 pairings of sigma's (possibly
    huge) columns for k = |S|, against k^2 for the whole S x S block.
    """

    __slots__ = ("matrix", "lattice", "_moved")
    _fields = ("matrix", "lattice")

    def __init__(self, matrix, lattice):
        # matrix is a tuple of tuples of ints (an assembled sigma, or one
        # decoded by _dec_ints); it is stored as given
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "lattice", lattice)
        # looked up on the instance: bench/spans.py times every construction
        # by wrapping Isometry.__post_init__
        self.__post_init__()

    def __post_init__(self):
        m, L = self.matrix, self.lattice
        n = L.rank
        if len(m) != n or any(len(row) != n for row in m):
            raise ValueError("isometry matrix shape does not match lattice rank")
        cols = list(zip(*m))
        s = [j for j, c in enumerate(cols) if c[j] != 1 or c.count(0) != n - 1]
        object.__setattr__(self, "_moved", s)
        # row j of M_S^T G is (G M e_j)^T, as G is symmetric
        for a, (j, gmj) in enumerate(zip(s, snf.mat_mul([cols[j] for j in s], L.gram))):
            gj = L.gram[j]
            upper = s[a:]
            pairings = [sum(map(mul, gmj, cols[i])) for i in upper]
            # the fixed columns are compared in place; (j, i) for a moved
            # i < j was row i's pairing
            for i in s:
                gmj[i] = gj[i]
            if pairings != [gj[i] for i in upper] or gmj != list(gj):
                raise ValueError("matrix does not preserve the Gram form")

    def apply(self, v: LatticeVector) -> LatticeVector:
        if v.lattice != self.lattice:
            raise ValueError("vector lives in a different lattice")
        return LatticeVector(tuple(snf.mat_vec(self.matrix, v.coords)), self.lattice)

    def det(self) -> int:
        """The determinant, +1 or -1.

        It is +-1 for every Isometry (see the class docstring), and 1 and -1
        differ mod 3, so det M mod 3 decides the sign exactly.  That residue
        comes from Gaussian elimination over GF(3), whose entries stay in
        {0, 1, 2} instead of growing from sigma's large ones.  The columns
        outside S are unit vectors, so M is block triangular with an identity
        block (order S first) and det M = det M[S][S].
        """
        s, m = self._moved, self.matrix
        return 1 if snf.det_bareiss([[m[i][j] for j in s] for i in s], 3) == 1 else -1


# ---------------------------------------------------------------------------
# builders

# Entries kept by the caches keyed by n, lattice or Picard basis, so that a
# long batch of instances cannot grow them without bound.
CACHE_SIZE = 128

_U_GRAM = ((0, 1), (1, 0))

_E8_EDGES = ((1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8))


def e8_negative_gram():
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2
    for a, b in _E8_EDGES:
        g[a - 1][b - 1] = 1
        g[b - 1][a - 1] = 1
    return tuple(tuple(row) for row in g)


def hyperbolic_plane(label="U") -> GramLattice:
    return GramLattice(2, _U_GRAM, label)


def direct_sum(*lattices, label="") -> GramLattice:
    n = sum(L.rank for L in lattices)
    g = [[0] * n for _ in range(n)]
    off = 0
    for L in lattices:
        for i in range(L.rank):
            for j in range(L.rank):
                g[off + i][off + j] = L.gram[i][j]
        off += L.rank
    return GramLattice(n, tuple(tuple(row) for row in g), label)


@lru_cache(maxsize=None)
def build_k3_lattice() -> GramLattice:
    """The rank-22 unimodular lattice U^3 + E8(-1)^2 in the fixed basis order."""
    U = hyperbolic_plane()
    E8 = GramLattice(8, e8_negative_gram(), "E8(-1)")
    return direct_sum(U, U, U, E8, E8, label="K3")


@lru_cache(maxsize=CACHE_SIZE)
def build_lambda(n: int) -> GramLattice:
    """The rank-23 lattice U^3 + E8(-1)^2 + <2-2n>, delta last."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    k3 = build_k3_lattice()
    tail = GramLattice(1, ((2 - 2 * n,),), "delta")
    return direct_sum(k3, tail, label=f"Lambda(n={n})")


DELTA_INDEX = 22


# ---------------------------------------------------------------------------
# pairings

def _sparse(coords):
    # the nonzero entries of a coordinate tuple, as (index, value) pairs
    return tuple((i, c) for i, c in enumerate(coords) if c)


def pair(v: LatticeVector, w: LatticeVector) -> int:
    if v.lattice != w.lattice:
        raise ValueError("vectors live in different lattices")
    wc = w.coords
    total = 0
    for a, row in zip(v.coords, v.lattice.sparse_rows):
        if a:
            for j, r in row:
                total += a * r * wc[j]
    return total


def norm(v: LatticeVector) -> int:
    return pair(v, v)


def gram_of(vectors):
    """The Gram matrix ((v_i, v_j)) of a list of vectors."""
    return [[pair(a, b) for b in vectors] for a in vectors]


def form_value(gram, coeffs) -> int:
    """sum_ij c_i c_j gram_ij: the norm of sum_i c_i v_i, given gram_of(v)."""
    return sum(ci * sum(map(mul, row, coeffs)) for ci, row in zip(coeffs, gram) if ci)


def linear_combination(L: GramLattice, coeffs, vectors) -> LatticeVector:
    """sum_i c_i v_i in L (the zero vector when every c_i is 0)."""
    out = [0] * L.rank
    for c, v in zip(coeffs, vectors):
        if c:
            for i, x in _sparse(v.coords):
                out[i] += c * x
    return LatticeVector(tuple(out), L)


def _gram_times(v: LatticeVector):
    # pairings of v with every basis vector: G v, summed over the support of
    # v (G is symmetric, so sparse row i is also column i)
    out = [0] * v.lattice.rank
    for a, row in zip(v.coords, v.lattice.sparse_rows):
        if a:
            for j, r in row:
                out[j] += a * r
    return out


def divisibility(v: LatticeVector) -> int:
    """Nonnegative generator of the pairing ideal {(v, mu) : mu in the lattice}:
    0 for the zero vector, whose ideal is zero."""
    return gcd(*_gram_times(v))


def is_primitive(v: LatticeVector) -> bool:
    """gcd of the coordinates is 1; false for the zero vector."""
    return gcd(*v.coords) == 1


def discriminant_group(L: GramLattice):
    """Invariant factors of the quotient (dual lattice)/(lattice)."""
    return tuple(d for d in snf.snf_diagonal(_gram_snf(L)[1]) if d != 1)


@lru_cache(maxsize=CACHE_SIZE)
def _gram_snf(L: GramLattice):
    return snf.smith_normal_form([list(r) for r in L.gram])


def acts_trivially_on_discriminant(iso: Isometry) -> bool:
    """True iff the isometry fixes every class of the discriminant group.

    The isometry M acts trivially iff M - I maps the dual lattice L* into L.
    With U G V = D the Smith form of the Gram matrix, L* = G^-1 Z^n =
    V D^-1 Z^n, so L*/L is generated by the columns v_i / d_i of V D^-1
    with d_i > 1 (Nikulin 1979).  The check is therefore exactly
    (M - I) v_i = 0 mod d_i for those columns only; on build_lambda(n) that
    is a single column, with d = 2n - 2.
    """
    _, D, V = _gram_snf(iso.lattice)
    for i, d in enumerate(snf.snf_diagonal(D)):
        if d > 1:
            v = [row[i] for row in V]
            if any((mv - x) % d for mv, x in zip(snf.mat_vec(iso.matrix, v), v)):
                return False
    return True


# ---------------------------------------------------------------------------
# rational span membership

@lru_cache(maxsize=CACHE_SIZE)
def _span_snf(L: GramLattice, span_coords):
    # Smith form U M V = D of the span matrix M, whose columns are the span
    # vectors; for a Picard basis, validation, coordinates and brauer_equal share it
    return snf.smith_normal_form([[c[i] for c in span_coords] for i in range(L.rank)])


def _span_relations(L: GramLattice, S):
    # K: the rows of U at the zero rows of D, which span the relations y M = 0
    # (an empty span's matrix M has no columns, so U = I and K = I)
    if any(s.lattice != L for s in S):
        raise ValueError("span vectors live in a different lattice")
    return snf.left_kernel_basis(_span_snf(L, tuple(s.coords for s in S)))


def in_span_plus_lattice(q: RationalClass, S) -> bool:
    """True iff q is a rational combination of S plus an integral vector.

    With q = num/den and K the relations of the span, x is in the rational
    span of S iff K x = 0, so an integral mu with q - mu in it solves
    K mu = (K num)/den.  K is made of rows of the unimodular U, so K mu = y
    has an integral solution for every integral y (mu = U^-1 z, where z is y
    at those rows and 0 elsewhere).  Hence the test is K num = 0 (mod den).
    """
    K = _span_relations(q.numerator.lattice, S)
    den = q.denominator
    return not any(x % den for x in snf.mat_vec(K, q.numerator.coords))


def span_lattice_witness(q: RationalClass, S):
    """Integral vector mu with q - mu in the rational span of S, or None.

    The tests' reference for in_span_plus_lattice: it solves
    K mu = (K num)/den through the Smith form of K.
    """
    L = q.numerator.lattice
    K = _span_relations(L, S)
    if not K:
        return L.zero()
    den = q.denominator
    c = snf.mat_vec(K, q.numerator.coords)
    if any(x % den for x in c):
        return None
    sol = snf.solve_integer(snf.smith_normal_form(K), [x // den for x in c])
    if sol is None:
        return None
    return L.vector(sol)


def orthogonal_complement_basis(L: GramLattice, vectors):
    """Canonical basis of {x : (x, v) = 0 for all v}, as HNF rows.

    The pairing rows G v are zero outside the columns T that some v touches,
    so the complement is the kernel K of their T columns plus the unit
    vectors of the other coordinates.  No other row touches those unit
    vectors' pivots, so the unique HNF of the whole is the HNF of K, put
    back in T, merged with them by pivot column.
    """
    rows = [_gram_times(v) for v in vectors]
    touched = sorted({j for row in rows for j, x in enumerate(row) if x})
    n = L.rank
    basis = [(i, (0,) * i + (1,) + (0,) * (n - 1 - i)) for i in set(range(n)).difference(touched)]
    if touched:
        kernel = snf.kernel_basis(snf.smith_normal_form([[row[j] for j in touched] for row in rows]))
        for k in snf.hermite_rows(kernel):
            x = [0] * n
            for j, c in zip(touched, k):
                x[j] = c
            basis.append((touched[next(p for p, c in enumerate(k) if c)], tuple(x)))
    basis.sort()  # by pivot column, one per row
    return [LatticeVector(x, L) for _, x in basis]


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


def _abs_tuples(length, total, bound):
    if length == 1:
        if 0 <= total <= bound:
            yield (total,)
        return
    for first in range(0, min(total, bound) + 1):
        for rest in _abs_tuples(length - 1, total - first, bound):
            yield (first,) + rest
