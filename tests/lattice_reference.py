"""Dense reference versions of code in ``hkcert.lattice``,
``hkcert.construction`` and ``hkcert.snf``, kept for the tests only.

``eichler_transvection`` builds one transvection as an ``Isometry``.
``DenseReduction`` and ``isometry_of_ops_full`` are the reduction and the
sigma assembly as first written: every op record goes through full
coordinate vectors, and every one of the rank columns is replayed through
every op.  The package's sparse ``_reduction_ops`` and ``_isometry_of_ops``
must give the same op lists and the same sigma.

``smith_normal_form`` is the Smith form as first written, updating one
entry at a time and scanning every entry for the pivot;
``orthogonal_complement_basis`` takes the kernel over all coordinates.  The
package's versions must give the same (U, D, V) and the same basis.

``solve_integer`` (from ``verifier_reference``) and ``in_span_plus_lattice``
are the solver and the span test as first written, on the dense (U, D, V) of
``snf.smith_normal_form``: every product is a dense ``snf.mat_vec`` over all
of U or V.  The package's versions sum over the nonzero entries of cached
sparse columns and must give the same solution and the same boolean.
``raw_span_snf`` and ``in_span_plus_lattice`` take the Smith form of the span
vectors as given; the package's cached form is of their Hermite rows, and
must give the same invariant factors, solvability and verdicts.

``first_hit_reference`` is the full graded scan in documented order, the
definition of the first hit that ``first_orthogonal_tuple`` and
``find_omega`` must return.

``kernel_has_bounded_positive`` and ``saturated_by_snf`` are the seeded
sampler's feasibility scan and saturation pre-check as first written: every
nonzero kernel coefficient tuple in the documented order, and the Smith form
of the support matrix.  The package's interval test and minors gcd must
give the same booleans.  The scan sums each norm with ``dense_form_value``,
over every Gram entry, so it shares no code with the package's prepared
``form_evaluator``.

``gram_signature`` is the sampler's signature test as first written: Descartes'
rule of signs on the characteristic polynomial, by Faddeev-LeVerrier.  The
package's Lagrange reduction must give the same (n_plus, n_minus, n_zero).
"""

from operator import mul

from hkcert import snf
from hkcert.construction import (
    _extended_gcd_combination,
    _inverse,
    _transvect,
    graded_coefficient_tuples,
)
from hkcert.errors import SearchExhausted
from hkcert.lattice import (
    Isometry,
    LatticeVector,
    _gram_times,
    norm,
    pair,
)
from hkcert.sampler import kernel_basis
from hkcert.snf import _xgcd, hermite_rows, identity_matrix
from hkcert.snf import sparse as _sparse
from verifier_reference import solve_integer  # noqa: F401  (re-exported for callers)


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
    return isometry_of_ops_full([transvection(e, a)], (), e.lattice)


def transvection(e: LatticeVector, a: LatticeVector):
    """Sparse record (e, a, Ge, Ga, (a,a)/2) of t(e, a), built from full
    coordinate vectors."""
    return (
        _sparse(e.coords),
        _sparse(a.coords),
        _sparse(_gram_times(e)),
        _sparse(_gram_times(a)),
        norm(a) // 2,
    )


def isometry_of_ops_full(ops, inverse_ops, L):
    """The isometry that applies ``ops`` in order, then undoes
    ``inverse_ops``, replaying every column."""
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


class DenseReduction:
    """Drives a primitive divisibility-1 vector to e1 + (norm/2) f1, with
    every e and a passed as a full coordinate list."""

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
        op = transvection(self.L.vector(e_coords), self.L.vector(a_coords))
        self.ops.append(op)
        _transvect(op, cur)
        return cur

    def run(self, v: LatticeVector):
        cur = list(v.coords)
        target_n = norm(v) // 2
        cur = self._make_p2_one(cur)
        r_part = [0] * self.L.rank
        for k in self.r_indices:
            r_part[k] = -cur[k]
        cur = self._push(self._unit(self.ie2), r_part, cur)
        p1, q1 = self._pairings(cur)[:2]
        a = [0] * self.L.rank
        a[self.ie1] = -q1
        a[self.if1] = -p1
        cur = self._push(self._unit(self.ie2), a, cur)
        cur = self._push(self._unit(self.ie2), self._unit(self.ie1), cur)
        a = [0] * self.L.rank
        a[self.ie2] = -target_n
        a[self.if2] = -1
        cur = self._push(self._unit(self.if1), a, cur)
        expect = [0] * self.L.rank
        expect[self.ie1] = 1
        expect[self.if1] = target_n
        assert cur == expect
        return self.ops

    def _against(self, idx, cur):
        return sum(r * cur[j] for j, r in self.L.sparse_rows[idx])

    def _pairings(self, cur):
        return tuple(self._against(idx, cur) for idx in (self.ie1, self.if1, self.ie2, self.if2))

    def _E1(self, k, cur):
        return self._push(self._unit(self.ie1), self._unit(self.if2, k), cur)

    def _E2(self, k, cur):
        return self._push(self._unit(self.ie2), self._unit(self.if1, k), cur)

    def _F1(self, k, cur):
        return self._push(self._unit(self.if1), self._unit(self.if2, k), cur)

    def _G2(self, k, cur):
        return self._push(self._unit(self.ie2), self._unit(self.ie1, k), cur)

    def _H2(self, k, cur):
        return self._push(self._unit(self.if2), self._unit(self.ie1, k), cur)

    def _r_pairings(self, cur):
        return [(idx, self._against(idx, cur)) for idx in self.r_indices]

    def _make_p2_one(self, cur):
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
                    a = self._solve_r_pairing(cur, -1)
                    cur = self._push(self._unit(self.if2), a, cur)
                continue
            if p2 == -1:
                cur = self._G2(q1 - 1, cur)
                cur = self._F1(2, cur)
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
                if p1:
                    cur = self._E2(-(p1 // p2), cur)
                cur = self._H2(1, cur)
                continue
            bad = next((idx for idx, val in self._r_pairings(cur) if val % p2 != 0), None)
            assert bad is not None
            cur = self._push(self._unit(self.ie1), self._unit(bad), cur)

    @staticmethod
    def _step_to_residue(value, modulus):
        t = value % abs(modulus)
        if t == 0:
            t = abs(modulus)
        return (t - value) // modulus

    def _solve_r_pairing(self, cur, want):
        pairs = self._r_pairings(cur)
        vals = [val for _, val in pairs]
        coeffs = _extended_gcd_combination(vals)
        g = sum(c * v for c, v in zip(coeffs, vals))
        assert g != 0 and want % g == 0
        scale = want // g
        a = [0] * self.L.rank
        for (idx, _), c in zip(pairs, coeffs):
            a[idx] = c * scale
        return a


def orthogonal_complement_basis(L, vectors):
    """HNF basis of {x : (x, v) = 0 for all v}, from the kernel of the
    pairing rows over all L.rank coordinates."""
    rows = [_gram_times(v) for v in vectors]
    if not rows:
        basis = identity_matrix(L.rank)
    else:
        basis = kernel_basis(snf.smith_normal_form(rows))
    return [L.vector(b) for b in hermite_rows(basis)]


def raw_span_snf(L, span_coords):
    """lattice._span_snf as first written: the sparse Smith form of the span
    matrix whose columns are the span vectors as given, not their Hermite
    rows."""
    return snf.sparse_smith_form([[c[i] for c in span_coords] for i in range(L.rank)])


def in_span_plus_lattice(q, S):
    """q = num/den is in the rational span of S plus the lattice iff K num = 0
    (mod den), with K the rows of U past the rank in the dense Smith form
    U M V = D of the span matrix M, whose columns are S."""
    L = q.numerator.lattice
    U, D, _ = snf.smith_normal_form([[s.coords[i] for s in S] for i in range(L.rank)])
    K = U[sum(1 for d in snf.snf_diagonal(D) if d):]
    return not any(x % q.denominator for x in snf.mat_vec(K, q.numerator.coords))


def smith_normal_form(M):
    """Return (U, D, V) with U*M*V = D, D diagonal, d_i | d_{i+1}."""
    m = len(M)
    n = len(M[0]) if m else 0
    A = [[int(x) for x in row] for row in M]
    U = identity_matrix(m)
    V = identity_matrix(n)

    def row_combine(i, j, a, b, c, d):
        for X in (A, U):
            ri, rj = X[i], X[j]
            for k in range(len(ri)):
                ri[k], rj[k] = a * ri[k] + b * rj[k], c * ri[k] + d * rj[k]

    def col_combine(i, j, a, b, c, d):
        for X in (A, V):
            for row in X:
                row[i], row[j] = a * row[i] + b * row[j], c * row[i] + d * row[j]

    def clear_position(t):
        while True:
            for i in range(t + 1, m):
                if A[i][t]:
                    p, q = A[t][t], A[i][t]
                    if p and q % p == 0:
                        row_combine(t, i, 1, 0, -(q // p), 1)
                    else:
                        g, x, y = _xgcd(p, q)
                        row_combine(t, i, x, y, -(q // g), p // g)
            for j in range(t + 1, n):
                if A[t][j]:
                    p, q = A[t][t], A[t][j]
                    if p and q % p == 0:
                        col_combine(t, j, 1, 0, -(q // p), 1)
                    else:
                        g, x, y = _xgcd(p, q)
                        col_combine(t, j, x, y, -(q // g), p // g)
            if all(A[i][t] == 0 for i in range(t + 1, m)):
                break

    t = 0
    while t < min(m, n):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] and (piv is None or abs(A[i][j]) < abs(A[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            row_combine(t, piv[0], 0, 1, -1, 0)
        if piv[1] != t:
            col_combine(t, piv[1], 0, 1, -1, 0)
        clear_position(t)
        t += 1
    rank = t

    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if b % a != 0:
                row_combine(i, i + 1, 1, 1, 0, 1)
                g, x, y = _xgcd(a, b)
                col_combine(i, i + 1, x, y, -(b // g), a // g)
                p = A[i][i]
                if A[i + 1][i]:
                    row_combine(i, i + 1, 1, 0, -(A[i + 1][i] // p), 1)
                if A[i][i + 1]:
                    col_combine(i, i + 1, 1, 0, -(A[i][i + 1] // p), 1)
                changed = True
    for i in range(rank):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]
            U[i] = [-x for x in U[i]]
    return U, A, V


def first_hit_reference(weights, bound, accept):
    """The first tuple in graded order within bound, orthogonal to the
    weights and accepted, or None: every tuple is scanned."""
    for coeffs in graded_coefficient_tuples(len(weights), bound):
        if sum(c * w for c, w in zip(coeffs, weights)) == 0 and accept(coeffs):
            return coeffs
    return None


def dense_form_value(gram, coeffs):
    """sum_ij c_i c_j gram_ij over every entry, zeros included."""
    n = len(gram)
    return sum(coeffs[i] * coeffs[j] * gram[i][j] for i in range(n) for j in range(n))


def kernel_has_bounded_positive(sub_gram, weights):
    """Whether some nonzero tuple of [-12, 12]^K over the kernel basis of the
    weights gives Picard coefficients, each within 16, of positive norm."""
    kern = kernel_basis(snf.smith_normal_form([weights]))
    if not kern:
        return False
    gens = [list(col) for col in zip(*kern)]
    for kcoeffs in graded_coefficient_tuples(len(kern), 12):
        coeffs = [sum(map(mul, row, kcoeffs)) for row in gens]
        if all(abs(c) <= 16 for c in coeffs) and dense_form_value(sub_gram, coeffs) > 0:
            return True
    return False


def saturated_by_snf(rows, rank):
    """Whether the columns of ``rows`` are independent and saturated: all
    ``rank`` invariant factors of the matrix are 1."""
    diag = [d for d in snf.snf_diagonal(snf.smith_normal_form(rows)[1]) if d != 0]
    return len(diag) == rank and all(d == 1 for d in diag)


def gram_signature(G):
    """(n_plus, n_minus, n_zero) of a symmetric integer matrix, exactly.

    Descartes' rule of signs on the characteristic polynomial det(xI - G),
    computed in integers by Faddeev-LeVerrier: G M_k has trace -k c_(n-k),
    with M_1 = I and M_(k+1) = G M_k + c_(n-k) I.  A symmetric matrix has
    only real eigenvalues, so the sign changes of the coefficients count the
    positive ones exactly, and the trailing zero coefficients the zero ones.
    """
    n = len(G)
    coeffs = [1]  # highest power first
    GM = [[0] * n for _ in range(n)]  # G M_(k-1), with M_0 = 0
    for k in range(1, n + 1):
        for i in range(n):
            GM[i][i] += coeffs[-1]
        # GM now holds M_k, a polynomial in G and so symmetric: its rows are
        # its columns
        GM = [[sum(map(mul, g, m)) for m in GM] for g in G]
        coeffs.append(-sum(GM[i][i] for i in range(n)) // k)
    zero = 0
    while coeffs[-1] == 0:
        coeffs.pop()
        zero += 1
    signs = [c > 0 for c in coeffs if c]
    pos = sum(a != b for a, b in zip(signs, signs[1:]))
    return pos, n - zero - pos, zero
