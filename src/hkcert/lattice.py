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

from .errors import NoIsometryError, SearchExhausted
from . import snf
from .record import Record


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
        if rank and snf.det_bareiss([list(r) for r in g]) == 0:
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
        return LatticeVector(tuple(int(c) for c in coords), self)

    def _vec(self, coords_tuple) -> "LatticeVector":
        # internal fast path: coords_tuple is already a tuple of ints
        return LatticeVector(coords_tuple, self)

    def basis_vector(self, i: int) -> "LatticeVector":
        return self.vector([1 if j == i else 0 for j in range(self.rank)])

    def zero(self) -> "LatticeVector":
        return self.vector([0] * self.rank)

    def determinant(self) -> int:
        return snf.det_bareiss([list(r) for r in self.gram])


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
        g = 0
        for c in num.coords:
            g = gcd(g, c)
        g = gcd(g, den)
        if g > 1:
            num = num.lattice.vector([c // g for c in num.coords])
            den //= g
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    def __sub__(self, other):
        if other.numerator.lattice != self.numerator.lattice:
            raise ValueError("classes live in different lattices")
        a, b = self.denominator, other.denominator
        num = b * self.numerator - a * other.numerator
        return RationalClass(num, a * b)

    def __neg__(self):
        return RationalClass(-self.numerator, self.denominator)

    def is_integral(self) -> bool:
        return self.denominator == 1


class DiscriminantData(Record):
    __slots__ = _fields = ("invariant_factors",)


class Isometry(Record):
    """Integer matrix acting on coordinate columns, preserving the Gram form.

    Construction checks M^T G M = G exactly.  Since the lattice is
    nondegenerate, that identity gives det(M)^2 = 1, so every Isometry is
    unimodular without a separate determinant check.
    """

    __slots__ = _fields = ("matrix", "lattice")

    def __init__(self, matrix, lattice):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "lattice", lattice)
        # looked up on the instance: bench/spans.py times every construction
        # by wrapping Isometry.__post_init__
        self.__post_init__()

    def __post_init__(self):
        m = tuple(tuple(int(x) for x in row) for row in self.matrix)
        object.__setattr__(self, "matrix", m)
        n = self.lattice.rank
        if len(m) != n or any(len(row) != n for row in m):
            raise ValueError("isometry matrix shape does not match lattice rank")
        g = self.lattice.gram
        # G*M first, so mat_mul skips the zeros of the sparse Gram matrix
        if snf.mat_mul(snf.transpose(m), snf.mat_mul(g, m)) != [list(r) for r in g]:
            raise ValueError("matrix does not preserve the Gram form")

    def apply(self, v: LatticeVector) -> LatticeVector:
        if v.lattice != self.lattice:
            raise ValueError("vector lives in a different lattice")
        return self.lattice._vec(tuple(snf.mat_vec(self.matrix, v.coords)))

    def apply_rational(self, q: RationalClass) -> RationalClass:
        return RationalClass(self.apply(q.numerator), q.denominator)

    def det(self) -> int:
        """The determinant, +1 or -1.

        It is +-1 for every Isometry (see the class docstring), and 1 and -1
        differ mod 3, so det M mod 3 decides the sign exactly.  That residue
        comes from Gaussian elimination over GF(3), whose entries stay in
        {0, 1, 2} instead of growing from sigma's large ones.
        """
        return 1 if snf.det_bareiss(self.matrix, 3) == 1 else -1


def identity_isometry(L: GramLattice) -> Isometry:
    return Isometry(tuple(map(tuple, snf.identity_matrix(L.rank))), L)


# ---------------------------------------------------------------------------
# builders

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


@lru_cache(maxsize=None)
def build_lambda(n: int) -> GramLattice:
    """The rank-23 lattice U^3 + E8(-1)^2 + <2-2n>, delta last."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    k3 = build_k3_lattice()
    tail = GramLattice(1, ((2 - 2 * n,),), "delta")
    return direct_sum(k3, tail, label=f"Lambda(n={n})")


DELTA_INDEX = 22

# Entries kept by the caches keyed by lattice or Picard basis, so that a long
# batch of instances cannot grow them without bound.
CACHE_SIZE = 128


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
    """Positive generator of the pairing ideal {(v, mu) : mu in the lattice}."""
    if v.is_zero():
        raise ValueError("divisibility of the zero vector is undefined")
    d = 0
    for p in _gram_times(v):
        d = gcd(d, p)
    return d


def is_primitive(v: LatticeVector) -> bool:
    if v.is_zero():
        raise ValueError("primitivity of the zero vector is undefined")
    g = 0
    for c in v.coords:
        g = gcd(g, c)
    return g == 1


def smith_normal_form(M):
    """Exact Smith normal form; see snf.smith_normal_form."""
    return snf.smith_normal_form(M)


def discriminant_group(L: GramLattice) -> DiscriminantData:
    """Invariant factors of the quotient (dual lattice)/(lattice)."""
    U, D, V = _gram_snf(L)
    diag = snf.snf_diagonal(D)
    if any(d == 0 for d in diag):
        raise ValueError("lattice is degenerate")
    return DiscriminantData(tuple(d for d in diag if d != 1))


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
# Eichler transvections

def eichler_transvection(e: LatticeVector, a: LatticeVector) -> Isometry:
    """The isometry x -> x - (a,x) e + (e,x) a - (a,a)/2 (e,x) e.

    Requires (e,e) = 0 and (e,a) = 0; (a,a) must be even so the last
    coefficient is an integer.  The result has determinant +1 and acts
    trivially on the discriminant group.
    """
    if e.lattice != a.lattice:
        raise ValueError("vectors live in different lattices")
    if norm(e) != 0:
        raise ValueError("e must be isotropic")
    if pair(e, a) != 0:
        raise ValueError("a must be orthogonal to e")
    if norm(a) % 2 != 0:
        raise ValueError("(a,a) must be even")
    return _isometry_of_ops([_transvection(e, a)], (), e.lattice)


def _transvection(e: LatticeVector, a: LatticeVector):
    """Sparse record (e, a, Ge, Ga, (a,a)/2) of t(e, a): each vector as its
    nonzero (index, value) pairs, Ge and Ga the pairings with the basis."""
    return (
        _sparse(e.coords),
        _sparse(a.coords),
        _sparse(_gram_times(e)),
        _sparse(_gram_times(a)),
        norm(a) // 2,
    )


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
    """The isometry that applies ``ops`` in order, then undoes ``inverse_ops``."""
    undo = [_inverse(op) for op in reversed(inverse_ops)]
    cols = []
    for j in range(L.rank):
        x = [0] * L.rank
        x[j] = 1
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


class _Reduction:
    """Drives a primitive divisibility-1 vector to e1 + (norm/2) f1.

    Works entirely through Eichler transvections t(e, a) with e one of the
    four isotropic basis vectors of the first two hyperbolic planes.  The
    recorded op list is replayed (or replayed inverted, a -> -a in reverse
    order) to build the final isometry.
    """

    def __init__(self, L, pairs, budget):
        self.L = L
        self.budget = budget
        (self.ie1, self.if1), (self.ie2, self.if2) = pairs[0], pairs[1]
        self.u_indices = {self.ie1, self.if1, self.ie2, self.if2}
        self.r_indices = [k for k in range(L.rank) if k not in self.u_indices]
        self.ops = []

    def _unit(self, idx, k=1):
        c = [0] * self.L.rank
        c[idx] = k
        return c

    def _push(self, e_coords, a_coords, cur):
        if all(c == 0 for c in a_coords):
            return cur
        if len(self.ops) >= self.budget:
            raise SearchExhausted(
                f"isometry reduction exceeded the step budget of {self.budget} transvections"
            )
        op = _transvection(self.L.vector(e_coords), self.L.vector(a_coords))
        self.ops.append(op)
        _transvect(op, cur)
        return cur

    def run(self, v: LatticeVector):
        cur = list(v.coords)
        target_n = norm(v) // 2
        cur = self._make_p2_one(cur)
        # kill the part outside the two hyperbolic planes
        r_part = [0] * self.L.rank
        for k in self.r_indices:
            r_part[k] = -cur[k]
        cur = self._push(self._unit(self.ie2), r_part, cur)
        # kill the first-plane coefficients
        p1, q1 = self._pairings(cur)[:2]
        a = [0] * self.L.rank
        a[self.ie1] = -q1
        a[self.if1] = -p1
        cur = self._push(self._unit(self.ie2), a, cur)
        # move e2-plane canonical form into the first plane
        cur = self._push(self._unit(self.ie2), self._unit(self.ie1), cur)
        a = [0] * self.L.rank
        a[self.ie2] = -target_n
        a[self.if2] = -1
        cur = self._push(self._unit(self.if1), a, cur)
        expect = [0] * self.L.rank
        expect[self.ie1] = 1
        expect[self.if1] = target_n
        if cur != expect:
            raise RuntimeError("reduction did not reach the canonical vector")  # unreachable
        return self.ops

    def _against(self, idx, cur):
        return sum(r * cur[j] for j, r in self.L.sparse_rows[idx])

    def _pairings(self, cur):
        return tuple(self._against(idx, cur) for idx in (self.ie1, self.if1, self.ie2, self.if2))

    # the five planar moves, written as (e, a) pairs; effects on the pairing
    # tuple (p1, q1, p2, q2) = ((e1,v), (f1,v), (e2,v), (f2,v)) are noted.
    def _E1(self, k, cur):  # p2 += k*p1 ; q1 -= k*q2
        return self._push(self._unit(self.ie1), self._unit(self.if2, k), cur)

    def _E2(self, k, cur):  # p1 += k*p2 ; q2 -= k*q1
        return self._push(self._unit(self.ie2), self._unit(self.if1, k), cur)

    def _F1(self, k, cur):  # p2 += k*q1 ; p1 -= k*q2
        return self._push(self._unit(self.if1), self._unit(self.if2, k), cur)

    def _G2(self, k, cur):  # q1 += k*p2 ; q2 -= k*p1
        return self._push(self._unit(self.ie2), self._unit(self.ie1, k), cur)

    def _H2(self, k, cur):  # q1 += k*q2 ; p2 -= k*p1
        return self._push(self._unit(self.if2), self._unit(self.ie1, k), cur)

    def _r_pairings(self, cur):
        return [(idx, self._against(idx, cur)) for idx in self.r_indices]

    def _make_p2_one(self, cur):
        # Euclidean descent on (e2, v); every pass through the main branch
        # strictly shrinks |p2|, so this terminates well inside the budget.
        while True:
            p1, q1, p2, q2 = self._pairings(cur)
            if p2 == 1:
                return cur
            if p2 == 0:
                if p1 != 0:
                    cur = self._E1(1, cur)
                elif q1 != 0:
                    cur = self._F1(1, cur)
                elif q2 != 0:
                    cur = self._H2(1, cur)
                else:
                    # all four plane pairings vanish; divisibility 1 lives in
                    # the rest of the lattice, so solve (a, v) = -1 there
                    a = self._solve_r_pairing(cur, -1)
                    cur = self._push(self._unit(self.if2), a, cur)
                continue
            if p2 == -1:
                cur = self._G2(q1 - 1, cur)   # q1 -> 1
                cur = self._F1(2, cur)        # p2 -> 1
                continue
            if p1 % p2 != 0:
                cur = self._E2(-(p1 // p2), cur)
                p1 = self._pairings(cur)[0]
                cur = self._E1(self._step_to_residue(p2, p1), cur)
                continue
            if q1 % p2 != 0:
                cur = self._G2(-(q1 // p2), cur)
                q1 = self._pairings(cur)[1]
                cur = self._F1(self._step_to_residue(p2, q1), cur)
                continue
            if q2 % p2 != 0:
                # zero out p1 first (exact multiple of p2) so the H2 side
                # effect p2 -= p1 cannot move p2
                if p1:
                    cur = self._E2(-(p1 // p2), cur)
                cur = self._H2(1, cur)
                continue
            bad = next((idx for idx, val in self._r_pairings(cur) if val % p2 != 0), None)
            if bad is None:
                raise RuntimeError("pairing gcd exceeded 1 during reduction")  # unreachable
            cur = self._push(self._unit(self.ie1), self._unit(bad), cur)
            # q1 is now nonzero mod p2; the next pass shrinks |p2|

    @staticmethod
    def _step_to_residue(value, modulus):
        # multiplier k with 0 < value + k*modulus <= |modulus|
        t = value % abs(modulus)
        if t == 0:
            t = abs(modulus)
        return (t - value) // modulus

    def _solve_r_pairing(self, cur, want):
        pairs = self._r_pairings(cur)
        vals = [val for _, val in pairs]
        coeffs = _extended_gcd_combination(vals)
        g = sum(c * v for c, v in zip(coeffs, vals))
        if g == 0 or want % g != 0:
            raise RuntimeError("divisibility-1 precondition violated")  # unreachable
        scale = want // g
        a = [0] * self.L.rank
        for (idx, _), c in zip(pairs, coeffs):
            a[idx] = c * scale
        return a


def _extended_gcd_combination(vals):
    # coefficients c with sum(c_i * vals_i) = gcd(vals) >= 0
    coeffs = [0] * len(vals)
    g = 0
    for i, v in enumerate(vals):
        if v == 0:
            continue
        gg, x, y = snf._xgcd(g, v)
        coeffs = [c * x for c in coeffs]
        coeffs[i] = y
        g = gg
    return coeffs


def isometry_between(v: LatticeVector, w: LatticeVector, step_budget: int = 10000) -> Isometry:
    """A transvection-generated isometry sending v to w, exactly.

    Both vectors must be primitive of divisibility 1 with equal norms, and
    the lattice must contain two orthogonal hyperbolic planes among its
    basis blocks.  The output always has determinant +1 and acts trivially
    on the discriminant group.
    """
    if v.lattice != w.lattice:
        raise ValueError("vectors live in different lattices")
    L = v.lattice
    if norm(v) != norm(w):
        raise NoIsometryError(f"norm mismatch: {norm(v)} != {norm(w)}")
    dv, dw = divisibility(v), divisibility(w)
    if dv != dw:
        raise NoIsometryError(f"divisibility mismatch: {dv} != {dw}")
    if dv != 1:
        raise NoIsometryError(f"only divisibility 1 is implemented, got {dv}")
    pairs = _hyperbolic_pairs(L)
    if len(pairs) < 2:
        raise ValueError("lattice needs two orthogonal hyperbolic planes among its basis blocks")
    if any(L.gram[i][i] % 2 for i in range(L.rank)):
        raise ValueError("lattice must be even")
    if v == w:
        return identity_isometry(L)
    ops_v = _Reduction(L, pairs, step_budget).run(v)
    ops_w = _Reduction(L, pairs, step_budget).run(w)
    iso = _isometry_of_ops(ops_v, ops_w, L)
    if iso.apply(v) != w:
        raise RuntimeError("constructed isometry failed to map v to w")  # unreachable
    return iso


# ---------------------------------------------------------------------------
# rational span membership

@lru_cache(maxsize=CACHE_SIZE)
def _span_snf(L: GramLattice, span_coords):
    # Smith form of the span matrix M, whose columns are the span vectors;
    # for a Picard basis, instance validation and coordinates share it
    return snf.smith_normal_form([[c[i] for c in span_coords] for i in range(L.rank)])


@lru_cache(maxsize=CACHE_SIZE)
def _span_solver(L: GramLattice, span_coords):
    # integer rows K spanning the rational relations y . M = 0 of the span
    # matrix M, plus the SNF of K for solving
    if span_coords:
        K = snf.left_kernel_basis(_span_snf(L, span_coords))
    else:
        K = snf.identity_matrix(L.rank)
    return K, (snf.smith_normal_form(K) if K else None)


def in_span_plus_lattice(q: RationalClass, S) -> bool:
    """True iff q is a rational combination of S plus an integral vector."""
    return span_lattice_witness(q, S) is not None


def span_lattice_witness(q: RationalClass, S):
    """Integral vector mu with q - mu in the rational span of S, or None.

    Decided exactly: with K the integer relations of the span, mu must solve
    K mu = (K num)/den, an integer linear system handled through the Smith
    form of K.
    """
    L = q.numerator.lattice
    for s in S:
        if s.lattice != L:
            raise ValueError("span vectors live in a different lattice")
    key = tuple(s.coords for s in S)
    K, ksnf = _span_solver(L, key)
    if not K:
        return L.zero()
    den = q.denominator
    c = snf.mat_vec(K, list(q.numerator.coords))
    if any(x % den != 0 for x in c):
        return None
    sol = snf.solve_integer(ksnf, [x // den for x in c])
    if sol is None:
        return None
    return L.vector(sol)


def orthogonal_complement_basis(L: GramLattice, vectors):
    """Canonical basis of {x : (x, v) = 0 for all v}, as HNF rows."""
    rows = [_gram_times(v) for v in vectors]
    if not rows:
        basis = snf.identity_matrix(L.rank)
    else:
        basis = snf.kernel_basis(snf.smith_normal_form(rows))
    basis = snf.hermite_rows(basis)
    return [L.vector(b) for b in basis]


# ---------------------------------------------------------------------------
# search-order enumeration

def graded_coefficient_tuples(length, bound, max_grade=None):
    """Yield nonzero coefficient tuples in the documented search order.

    Ascending grade (sum of absolute values), then absolute-value tuples in
    ascending lexicographic order, then sign patterns over the nonzero
    entries with + before - (leftmost entry varying slowest).  Every search
    in this package that takes "the first hit" iterates in this order, which
    is what makes recorded certificates reproducible bit for bit.
    ``search_order_key`` sorts any set of such tuples into the same order.
    """
    top = length * bound
    if max_grade is not None:
        top = min(top, max_grade)
    for s in range(1, top + 1):
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

    Only orthogonal tuples are visited.  With w_j != 0 one coordinate is
    solved: the other coordinates run through ascending grade f, and c_j is
    -sum_{i != j} c_i w_i / w_j when that is an integer of size at most
    ``bound``.  This reaches every nonzero orthogonal tuple exactly once.
    The result is the search_order_key minimum of the accepted ones, which is
    the generator's first hit.  A tuple's grade is at least f, so the scan
    stops once f exceeds the grade of the best hit so far.
    """
    j = max(range(len(weights)), key=lambda i: abs(weights[i]))
    wj = weights[j]
    if wj == 0:
        raise ValueError("at least one weight must be nonzero")
    others = weights[:j] + weights[j + 1:]
    best = best_key = None
    for rest in graded_coefficient_tuples(len(others), bound):
        f = sum(map(abs, rest))
        if best_key is not None and f > best_key[0]:
            break
        cj, r = divmod(-sum(c * w for c, w in zip(rest, others)), wj)
        if r or abs(cj) > bound:
            continue
        coeffs = rest[:j] + (cj,) + rest[j:]
        key = search_order_key(coeffs)
        if (best_key is None or key < best_key) and accept(coeffs):
            best, best_key = coeffs, key
    return best


def _abs_tuples(length, total, bound):
    if length == 1:
        if 0 <= total <= bound:
            yield (total,)
        return
    for first in range(0, min(total, bound) + 1):
        for rest in _abs_tuples(length - 1, total - first, bound):
            yield (first,) + rest
