"""Dense oracles for the verifier's checks on sigma, kept for the tests only:
the Gram identity, the orientation and the action on L*/L, each as first
defined, and ``u3_reversed``, the isometry that fails the orientation alone.

From hkcert this module imports ``snf`` and ``lattice`` only, so it shares
no code with the pipeline, the instance checks or the certificate codec.
"""

from functools import lru_cache

from hkcert import snf
from hkcert.lattice import pair


def solve_integer(snf_data, b):
    """Solve A x = b over the integers, given snf_data = smith_normal_form(A)
    with dense U and V; None when no integral solution exists."""
    U, D, V = snf_data
    r = sum(1 for d in snf.snf_diagonal(D) if d)
    c = snf.mat_vec(U, b)
    if any(c[r:]):
        return None
    y = [0] * len(V)
    for i in range(r):
        y[i], rem = divmod(c[i], D[i][i])
        if rem:
            return None
    return snf.mat_vec(V, y)


@lru_cache(maxsize=None)
def _gram_smith_form(L):
    return snf.smith_normal_form([list(r) for r in L.gram])


def acts_trivially_reference(iso):
    """The definition the generator check replaced: M - I maps the dual
    lattice into the lattice iff each row of M - I is an integral
    combination of Gram rows, solved densely against the Gram matrix's SNF."""
    data = _gram_smith_form(iso.lattice)
    n = iso.lattice.rank
    m = iso.matrix
    return all(
        solve_integer(data, [m[i][j] - (i == j) for j in range(n)]) is not None
        for i in range(n)
    )


def orientation_reference(sigma):
    """The orientation sign read from a second positive 3-plane,
    Q = <e1+f1, e2+f2, e3+2f3> (Gram diag(2, 2, 4)): the sign of
    det((sigma q_i, q_j)), each pairing taken with the lattice's form."""
    L = sigma.lattice
    zeros = [0] * (L.rank - 6)
    q = [L.vector([1, 1, 0, 0, 0, 0] + zeros), L.vector([0, 0, 1, 1, 0, 0] + zeros),
         L.vector([0, 0, 0, 0, 1, 2] + zeros)]
    d = snf.det_bareiss([[pair(sigma.apply(a), b) for b in q] for a in q])
    return 1 if d > 0 else -1


def dense_isometry_reference(matrix, L):
    """The Gram-identity check as written before the sparse product: the
    same shape check, then M^T (G M) = G with each product a dense triple
    loop that skips only the zero entries of its left factor.  Returns the
    normalised matrix or raises the same ValueError."""

    def dense_mat_mul(A, B):
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

    m = tuple(tuple(int(x) for x in row) for row in matrix)
    n = L.rank
    if len(m) != n or any(len(row) != n for row in m):
        raise ValueError("isometry matrix shape does not match lattice rank")
    product = dense_mat_mul([list(c) for c in zip(*m)], dense_mat_mul(L.gram, m))
    if product != [list(r) for r in L.gram]:
        raise ValueError("matrix does not preserve the Gram form")
    return m


def u3_reversed(rows):
    """The integer rows of sigma followed by -1 on U3 (coordinates 4 and 5).
    U3 is orthogonal to the source, h and delta, so this is an isometry of
    determinant 1, trivial on the discriminant group, with the same
    transport; but it reverses the orientation of positive 3-planes, so it
    is no parallel-transport operator."""
    return tuple(tuple(-x if j in (4, 5) else x for j, x in enumerate(row)) for row in rows)
