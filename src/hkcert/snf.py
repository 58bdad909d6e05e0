"""Exact integer matrix routines: Smith forms, solvers, determinants, products.

Matrices are lists (or tuples) of rows of Python ints.  Everything here is
arbitrary precision; no entry is ever coerced to a fixed-width type.
"""

from __future__ import annotations

from itertools import compress
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
    # returns (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


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
                g, x, y = _xgcd(a, b)
                col_combine(i, i + 1, x, y, -(b // g), a // g)
                # A[i][i+1] = -(b/g) a + (a/g) b = 0; clear the fill-in at A[i+1][i]
                p = A[i][i]
                if A[i + 1][i]:
                    row_combine(i, i + 1, 1, 0, -(A[i + 1][i] // p), 1)
                changed = True
    for i in range(rank):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]
            U[i] = [-x for x in U[i]]
    return U, A, V


def hermite_rows(rows):
    """Canonical row Hermite form of the lattice spanned by ``rows``.

    Pivots are positive and leftmost, entries above each pivot are reduced
    into [0, pivot) as it is placed.  The output is the lattice's unique
    canonical basis, whatever rows span it (Cohen, GTM 138, 2.4.3).
    """
    A = [list(r) for r in rows]
    n = len(A[0]) if A else 0
    r = 0
    for col in range(n):
        # gcd-sweep the column below r until live holds at most one row
        while True:
            live = [i for i in range(r, len(A)) if A[i][col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(A[i][col]))
            p = live[0]
            for i in live[1:]:
                q = A[i][col] // A[p][col]
                A[i] = [x - q * y for x, y in zip(A[i], A[p])]
        if not live:
            continue
        A[r], A[live[0]] = A[live[0]], A[r]
        if A[r][col] < 0:
            A[r] = [-x for x in A[r]]
        for i in range(r):
            q = A[i][col] // A[r][col]
            if q:
                A[i] = [x - q * y for x, y in zip(A[i], A[r])]
        r += 1
    return A[:r]


def snf_diagonal(D):
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]


def _rank(D):
    # the chain d_i | d_{i+1} puts the zero slots of the diagonal last
    return sum(1 for d in snf_diagonal(D) if d)


def sparse_smith_form(M):
    """smith_normal_form(M) with U and V as their ``sparse`` columns."""
    U, D, V = smith_normal_form(M)
    return tuple(map(sparse, zip(*U))), D, tuple(map(sparse, zip(*V)))


def solve_integer(snf_data, b):
    """Solve A x = b over the integers, given snf_data = sparse_smith_form(A):
    one solution x (a list of ints), or None when there is none."""
    U, D, V = snf_data
    r = _rank(D)
    c = columns_times(U, b)
    if any(c[r:]):
        return None
    y = [0] * len(V)
    for i in range(r):
        y[i], rem = divmod(c[i], D[i][i])
        if rem:
            return None
    return columns_times(V, y)
