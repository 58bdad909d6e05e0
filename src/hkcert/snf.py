"""Exact integer matrices: Smith and Hermite forms, the Hermite solve, determinants, products.

Matrices are lists (or tuples) of rows of Python ints.  Everything here is
arbitrary precision; no entry is ever coerced to a fixed-width type.  Both
normal forms clear an entry with the one 2 x 2 unimodular step ``_clearing``.
"""

from __future__ import annotations

from bisect import bisect
from itertools import compress, count
from operator import mul


def identity_matrix(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def mat_mul(A, B):
    """A*B, summed over the products of nonzero entries only.

    Each row of A meets only the rows of B at its own nonzero entries.  A
    row of B is reduced to its nonzero (column, value) pairs, by
    ``compress``, the first time some row of A needs it, and a row that no
    row of A touches is never scanned.  In an isometry's Gram check A is the
    moved columns M e_j of M, whose supports meet few of the rows of B = G,
    and a row of G has at most 4 nonzero entries.
    """
    cols = len(B[0]) if B else 0
    js = range(cols)
    sparse_rows = [None] * len(B)
    out = []
    for ai in A:
        oi = [0] * cols
        for k, a in compress(enumerate(ai), ai):
            bk = sparse_rows[k]
            if bk is None:
                row = B[k]
                bk = sparse_rows[k] = list(compress(zip(js, row), row))
            for j, b in bk:
                oi[j] += a * b
        out.append(oi)
    return out


def mat_vec(A, x):
    return [sum(map(mul, row, x)) for row in A]


def sparse(x):
    """The nonzero entries of x as (index, value) pairs."""
    return tuple(compress(enumerate(x), x))


def columns_times(columns, x):
    """A x for a square A given by its columns as ``sparse`` pairs: only the
    nonzero x_j, and the nonzero entries of their columns, are multiplied."""
    out = [0] * len(columns)
    for a, col in zip(x, columns):
        if a:
            for i, c in col:
                out[i] += c * a
    return out


def det_bareiss(M, p=None):
    """Exact determinant by fraction-free (Bareiss) elimination.

    With a prime ``p`` it returns det(M) mod p, in 0..p-1, by plain Gaussian
    elimination over GF(p) instead: M is reduced mod p once, each pivot is
    inverted mod p, and no entry ever leaves 0..p-1, however large the
    entries of M are (Bareiss entries grow with every step).
    """
    n = len(M)
    if p is not None:
        a = [[x % p for x in row] for row in M]
        det = 1
        for k in range(n):
            piv = next((i for i in range(k, n) if a[i][k]), None)
            if piv is None:
                return 0
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                det = -det
            lead = a[k][k]
            det = det * lead % p
            inv = pow(lead, -1, p)
            # columns <= k of the rows below are never read again
            tail = a[k][k + 1:]
            for i in range(k + 1, n):
                ai = a[i]
                if ai[k]:
                    f = ai[k] * inv % p
                    ai[k + 1:] = [(x - f * y) % p for x, y in zip(ai[k + 1:], tail)]
        return det % p
    if n == 0:
        return 1
    a = [list(row) for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _xgcd(a, b):
    # returns (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g; y is found last
    A, B = a, b
    x0, x1 = 1, 0
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
    if a < 0:
        a, x0 = -a, -x0
    return a, x0, (a - x0 * A) // B if B else 0


def _clearing(p, q):
    # the unimodular (a, b, c, d) taking (p, q) to (a p + b q, c p + d q) =
    # (p, 0) by a multiple of p where p divides q, else to (gcd(p, q), 0)
    if p and q % p == 0:
        return 1, 0, -(q // p), 1
    g, x, y = _xgcd(p, q)
    return x, y, -(q // g), p // g


def smith_normal_form(M):
    """Return (U, D, V) with U*M*V = D, D diagonal, d_i | d_{i+1}.

    U (m x m) and V (n x n) are unimodular (determinant +-1); diagonal
    entries of D are nonnegative.  Works for any rectangular integer matrix.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    A = [list(map(int, row)) for row in M]
    U = identity_matrix(m)
    V = identity_matrix(n)

    def row_combine(i, j, a, b, c, d):
        # rows (i, j) <- (a*ri + b*rj, c*ri + d*rj); a*d - b*c = +-1.  A
        # (1, 0, c, 1) step, the common one, changes row j only
        for X in (A, U):
            ri, rj = X[i], X[j]
            if a == 1 and b == 0 and d == 1:
                X[j] = [c * x + y for x, y in zip(ri, rj)]
            else:
                X[i] = [a * x + b * y for x, y in zip(ri, rj)]
                X[j] = [c * x + d * y for x, y in zip(ri, rj)]

    def col_combine(i, j, a, b, c, d):
        # the same on columns; a row with zeros at both i and j is left as is
        for X in (A, V):
            for row in X:
                x, y = row[i], row[j]
                if x or y:
                    row[i], row[j] = a * x + b * y, c * x + d * y

    def clear_position(t):
        # make A[t][t] the gcd of row/column t and zero out the rest of both
        while True:
            for i in range(t + 1, m):
                if A[i][t]:
                    row_combine(t, i, *_clearing(A[t][t], A[i][t]))
            for j in range(t + 1, n):
                if A[t][j]:
                    col_combine(t, j, *_clearing(A[t][t], A[t][j]))
            if all(A[i][t] == 0 for i in range(t + 1, m)):
                break

    t = 0
    while t < min(m, n):
        # the first entry of least absolute value, in row-major order; no
        # later entry can beat an entry of absolute value 1
        piv, least = None, 0
        for i in range(t, m):
            for j, x in enumerate(A[i][t:], t):
                if x and (not least or abs(x) < least):
                    piv, least = (i, j), abs(x)
                    if least == 1:
                        break
            if least == 1:
                break
        if piv is None:
            break
        if piv[0] != t:
            row_combine(t, piv[0], 0, 1, -1, 0)
        if piv[1] != t:
            col_combine(t, piv[1], 0, 1, -1, 0)
        clear_position(t)
        t += 1
    rank = t

    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if b % a != 0:
                row_combine(i, i + 1, 1, 1, 0, 1)      # A[i][i+1] = b
                col_combine(i, i + 1, *_clearing(a, b))
                # A[i][i] = gcd(a, b) divides the fill-in at A[i+1][i]
                if A[i + 1][i]:
                    row_combine(i, i + 1, *_clearing(A[i][i], A[i + 1][i]))
                changed = True
    for i in range(rank):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]
            U[i] = [-x for x in U[i]]
    return U, A, V


def hermite_rows(rows):
    """Canonical row Hermite form of the lattice spanned by ``rows``.

    Kannan and Bachem's row insertion (SIAM J. Comput. 8(4), 1979): each row
    is cleared by ``_clearing`` against the pivot rows held, in column order,
    until it is zero or reaches a column with no pivot, where it becomes a
    pivot row with a positive pivot.  Then every entry above every pivot is
    reduced into [0, pivot), top pivot first.  So the rows held are always
    the unique canonical basis of the rows so far (Cohen, GTM 138, 2.4.3).
    """
    H, cols = [], []  # the pivot rows, and their pivot columns in increasing order
    for r in map(list, rows):
        j = next(compress(count(), r), None)
        while j in cols:
            k = cols.index(j)
            h = H[k]
            a, b, c, d = _clearing(h[j], r[j])
            if b:  # else (1, 0, c, 1): the pivot row stays as it is
                H[k] = [a * x + b * y for x, y in zip(h, r)]
            r = [c * x + d * y for x, y in zip(h, r)]
            j = next(compress(count(), r), None)
        if j is not None:
            k = bisect(cols, j)
            H.insert(k, r if r[j] > 0 else [-x for x in r])
            cols.insert(k, j)
        for i, (j, h) in enumerate(zip(cols, H)):
            for k in range(i):
                q = H[k][j] // h[j]
                if q:
                    H[k] = [x - q * y for x, y in zip(H[k], h)]
    return H


def snf_diagonal(D):
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]


def solve_integer(H, b):
    """The integer y with y H = b for H = hermite_rows(...), or None if there is none.

    Back substitution: row i's pivot column is zero in every later row, so b at
    that column fixes y_i, and what remains of b must end at zero.
    """
    y = []
    for h in H:
        j = next(compress(count(), h))  # the pivot, h's first nonzero entry
        q, rem = divmod(b[j], h[j])
        if rem:
            return None
        y.append(q)
        if q:
            b = [x - q * c for x, c in zip(b, h)]
    return None if any(b) else y
