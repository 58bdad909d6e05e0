"""Exact integer matrix routines: Smith and Hermite forms, kernels, solvers.

Matrices are lists (or tuples) of rows of Python ints.  Everything here is
arbitrary precision; no entry is ever coerced to a fixed-width type.
"""

from __future__ import annotations


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = A[i]
        oi = out[i]
        for k in range(inner):
            a = ai[k]
            if a:
                bk = B[k]
                for j in range(cols):
                    oi[j] += a * bk[j]
    return out


def mat_vec(A, x):
    return [sum(a * b for a, b in zip(row, x)) for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


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
    A = [[int(x) for x in row] for row in M]
    U = identity_matrix(m)
    V = identity_matrix(n)

    def row_combine(i, j, a, b, c, d):
        # rows (i, j) <- (a*ri + b*rj, c*ri + d*rj); a*d - b*c = +-1
        for X in (A, U):
            ri, rj = X[i], X[j]
            for k in range(len(ri)):
                ri[k], rj[k] = a * ri[k] + b * rj[k], c * ri[k] + d * rj[k]

    def col_combine(i, j, a, b, c, d):
        for X in (A, V):
            for row in X:
                row[i], row[j] = a * row[i] + b * row[j], c * row[i] + d * row[j]

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
                # fill-in at A[i+1][i] and possibly A[i][i+1]; re-clear the block
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


def snf_diagonal(D):
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]


def solve_integer(snf_data, b):
    """Solve A x = b over the integers, given snf_data = smith_normal_form(A).

    Returns one solution x (list of ints) or None when no integral solution
    exists.
    """
    U, D, V = snf_data
    m = len(D)
    n = len(D[0]) if m else 0
    c = mat_vec(U, b)
    y = [0] * n
    for i in range(m):
        d = D[i][i] if i < n else 0
        if d:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
        elif c[i] != 0:
            return None
    return mat_vec(V, y)


def kernel_basis(snf_data):
    """Basis of {x in Z^n : A x = 0}; columns of V at zero diagonal slots."""
    U, D, V = snf_data
    m = len(D)
    n = len(D[0]) if m else 0
    cols = []
    for j in range(n):
        if j >= m or D[j][j] == 0:
            cols.append([V[i][j] for i in range(n)])
    return cols


def left_kernel_basis(snf_data):
    """Basis of {y in Z^m : y A = 0}; rows of U at zero rows of D."""
    U, D, V = snf_data
    m = len(D)
    n = len(D[0]) if m else 0
    rows = []
    for i in range(m):
        if i >= n or D[i][i] == 0:
            rows.append(list(U[i]))
    return rows


def hermite_rows(rows):
    """Canonical row Hermite form of the lattice spanned by ``rows``.

    Pivots are positive and leftmost, entries above each pivot are reduced
    into [0, pivot).  The output is the unique canonical basis, so every
    caller that enumerates over it is deterministic.
    """
    if not rows:
        return []
    A = [list(r) for r in rows]
    n = len(A[0])
    r = 0
    for col in range(n):
        # gcd-sweep the column below r down to a single entry
        while True:
            live = [i for i in range(r, len(A)) if A[i][col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(A[i][col]))
            p = live[0]
            for i in live[1:]:
                q = A[i][col] // A[p][col]
                A[i] = [x - q * y for x, y in zip(A[i], A[p])]
        live = [i for i in range(r, len(A)) if A[i][col] != 0]
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


def gram_signature(G):
    """(n_plus, n_minus, n_zero) of a symmetric matrix, exactly.

    Symmetric (Lagrange) reduction over Fraction entries.
    """
    # imported here: only the instance generator gets here, and fractions
    # (with decimal) would cost every CLI process start-up time
    from fractions import Fraction

    n = len(G)
    A = [[Fraction(x) for x in row] for row in G]
    pos = neg = zero = 0
    for k in range(n):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][i] != 0), None)
            if swap is not None:
                A[k], A[swap] = A[swap], A[k]
                for row in A:
                    row[k], row[swap] = row[swap], row[k]
            else:
                pair = next(
                    ((i, j) for i in range(k, n) for j in range(i + 1, n) if A[i][j] != 0),
                    None,
                )
                if pair is None:
                    zero += n - k
                    break
                i, j = pair
                # fold row/col j into i: new A[i][i] = 2*A[i][j] != 0
                for t in range(n):
                    A[i][t] += A[j][t]
                for t in range(n):
                    A[t][i] += A[t][j]
                if i != k:
                    A[k], A[i] = A[i], A[k]
                    for row in A:
                        row[k], row[i] = row[i], row[k]
        d = A[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        # congruence step: A'[i][j] = A[i][j] - A[i][k]*A[k][j]/d for i, j > k
        for i in range(k + 1, n):
            fik = A[i][k]
            if fik:
                for j in range(k + 1, n):
                    A[i][j] -= fik * A[k][j] / d
        for i in range(k + 1, n):
            A[i][k] = Fraction(0)
            A[k][i] = Fraction(0)
    return pos, neg, zero
