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

from functools import lru_cache
from math import gcd
from operator import add, sub

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
        object.__setattr__(self, "sparse_rows", tuple(snf.sparse(row) for row in g))
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
        return LatticeVector(tuple(map(add, self.coords, other.coords)), self.lattice)

    def __sub__(self, other):
        self._same(other)
        return LatticeVector(tuple(map(sub, self.coords, other.coords)), self.lattice)

    def __neg__(self):
        return LatticeVector(tuple(-a for a in self.coords), self.lattice)

    def __rmul__(self, k):
        k = int(k)
        return LatticeVector(tuple([k * a for a in self.coords]), self.lattice)

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
    nondegenerate, that gives det(M)^2 = 1, so every Isometry is unimodular.
    The moved columns S (M e_j != e_j) are kept as sparse columns of M - I.
    Both sides are symmetric and agree off the rows and columns in S, so
    for j in S, G M e_j is formed once: entry (j, i) is its coordinate i at
    a fixed i, and at a moved i >= j its pairing with M e_i, summed over
    the nonzero entries of (M - I) e_i.
    """

    __slots__ = ("matrix", "lattice", "_moved", "_columns")
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
        shift = [()] * n
        for j in s:
            c = list(cols[j])
            c[j] -= 1
            shift[j] = snf.sparse(c)
        object.__setattr__(self, "_moved", s)
        object.__setattr__(self, "_columns", tuple(shift))
        # row j of M_S^T G is (G M e_j)^T, as G is symmetric
        for a, (j, gmj) in enumerate(zip(s, snf.mat_mul([cols[j] for j in s], L.gram))):
            gj = L.gram[j]
            upper = s[a:]
            pairings = [sum([gmj[k] * x for k, x in shift[i]]) + gmj[i] for i in upper]
            # the fixed columns are compared in place; (j, i) for a moved
            # i < j was row i's pairing
            for i in s:
                gmj[i] = gj[i]
            if pairings != [gj[i] for i in upper] or gmj != list(gj):
                raise ValueError("matrix does not preserve the Gram form")

    def apply(self, v: LatticeVector) -> LatticeVector:
        # M x = x + the sum of x_j (M - I) e_j over the moved j with x_j != 0
        if v.lattice != self.lattice:
            raise ValueError("vector lives in a different lattice")
        x = v.coords
        return LatticeVector(tuple(map(add, x, snf.columns_times(self._columns, x))), self.lattice)

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

    def orientation(self) -> int:
        """+1 if M keeps the orientation of positive 3-planes, else -1.

        For a basis that starts with e1, f1, e2, f2, e3, f3 of U^3 and has
        signature (3, *), as build_lambda's does, P = <p_i> with p_i = e_i + f_i
        is positive definite (Gram 2I) and P^perp negative definite.  So the
        orthogonal projection of M(P) onto P is injective, and the sign of
        det((M p_i, p_j)) is the orientation character.  On U,
        (x, e + f) = x_e + x_f, so each entry is a sum of four entries of M.
        The determinant is expanded by cofactors: Bareiss's exact division
        costs over twice as much on sigma's thousand-digit entries.
        """
        m = self.matrix
        # rows[q][s] = (M e_s, p_q) for the first six columns s
        rows = [[x + y for x, y in zip(m[2 * q][:6], m[2 * q + 1][:6])] for q in range(3)]
        (a, b, c), (d, e, f), (g, h, k) = [[r[2 * p] + r[2 * p + 1] for r in rows] for p in range(3)]
        return 1 if a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g) > 0 else -1


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


def hyperbolic_plane() -> GramLattice:
    return GramLattice(2, _U_GRAM, "U")


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
    return snf.columns_times(v.lattice.sparse_rows, v.coords)


def divisibility(v: LatticeVector) -> int:
    """Nonnegative generator of the pairing ideal {(v, mu) : mu in the lattice}:
    0 for the zero vector, whose ideal is zero."""
    return gcd(*_gram_times(v))


def is_primitive(v: LatticeVector) -> bool:
    """gcd of the coordinates is 1; false for the zero vector."""
    return gcd(*v.coords) == 1


def discriminant_group(L: GramLattice):
    """Invariant factors of the quotient (dual lattice)/(lattice)."""
    return tuple(d for d, _ in _discriminant_generators(L))


@lru_cache(maxsize=CACHE_SIZE)
def _discriminant_generators(L: GramLattice):
    # (d_i, column i of V) for each d_i > 1, with U G V = D the Gram matrix's Smith form
    _, D, V = snf.smith_normal_form([list(r) for r in L.gram])
    return tuple((d, tuple(row[i] for row in V)) for i, d in enumerate(snf.snf_diagonal(D)) if d > 1)


def acts_trivially_on_discriminant(iso: Isometry) -> bool:
    """True iff the isometry fixes every class of the discriminant group.

    The isometry M acts trivially iff M - I maps the dual lattice L* into L.
    With U G V = D the Smith form of the Gram matrix, L* = G^-1 Z^n =
    V D^-1 Z^n, so L*/L is generated by the columns v_i / d_i of V D^-1
    with d_i > 1 (Nikulin 1979).  The check is therefore exactly
    (M - I) v_i = 0 mod d_i for those columns only; on build_lambda(n) that
    is a single column, with d = 2n - 2.
    """
    for d, v in _discriminant_generators(iso.lattice):
        # (M - I) v, summed over the moved columns
        if any(x % d for x in snf.columns_times(iso._columns, v)):
            return False
    return True


# ---------------------------------------------------------------------------
# rational span membership

@lru_cache(maxsize=CACHE_SIZE)
def _span_snf(L: GramLattice, span_coords):
    # the span's Hermite rows H, read by Picard membership; then, of the Smith form
    # U M V = D of the matrix M whose columns are H's rows, U as sparse columns, read
    # past the rank by in_span_plus_lattice, and the nonzero invariant factors
    H = snf.hermite_rows(span_coords)
    U, D, _ = snf.smith_normal_form([[h[i] for h in H] for i in range(L.rank)])
    return H, tuple(map(snf.sparse, zip(*U))), tuple(d for d in snf.snf_diagonal(D) if d)


def in_span_plus_lattice(q: RationalClass, S) -> bool:
    """True iff q is a rational combination of S plus an integral vector.

    With q = num/den and K the rows of U at the zero rows of D, which span
    the relations y M = 0, x is in the rational span of S iff K x = 0, so an
    integral mu with q - mu in it solves K mu = (K num)/den.  K is made of
    rows of the unimodular U, so K mu = y has an integral solution for every
    integral y (mu = U^-1 z, where z is y at those rows and 0 elsewhere).
    Hence the test is K num = 0 (mod den), read off U num past the rank (an
    empty span's matrix M has no columns, so U = I and K = I).
    """
    L, den = q.numerator.lattice, q.denominator
    if any(s.lattice != L for s in S):
        raise ValueError("span vectors live in a different lattice")
    H, U, _ = _span_snf(L, tuple(s.coords for s in S))
    return not any(x % den for x in snf.columns_times(U, q.numerator.coords)[len(H):])


def span_lattice_witness(q: RationalClass, S):
    """Integral vector mu with q - mu in the rational span of S, or None.

    The tests' reference for in_span_plus_lattice: it solves K mu = c = (K num)/den
    densely.  K is made of rows of a unimodular matrix, so its Smith form
    U_K K V_K is [I 0], and mu = V_K [U_K c; 0].
    """
    L = q.numerator.lattice
    H, U, _ = _span_snf(L, tuple(s.coords for s in S))
    cols = [dict(c) for c in U]
    K = [[c.get(i, 0) for c in cols] for i in range(len(H), L.rank)]
    if not K:
        return L.zero()
    den = q.denominator
    c = snf.mat_vec(K, q.numerator.coords)
    if any(x % den for x in c):
        return None
    U_K, _, V_K = snf.smith_normal_form(K)
    return L.vector(snf.mat_vec(V_K, snf.mat_vec(U_K, [x // den for x in c]) + [0] * len(H)))
