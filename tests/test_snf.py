import importlib.util
import random
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from hkcert.sampler import gram_signature, kernel_basis
from hkcert.snf import (
    det_bareiss,
    hermite_rows,
    mat_mul,
    mat_vec,
    smith_normal_form,
    snf_diagonal,
    solve_integer,
    sparse_smith_form,
)
from lattice_reference import gram_signature as reference_gram_signature
from lattice_reference import smith_normal_form as reference_smith_normal_form
from lattice_reference import solve_integer as dense_solve_integer


def check_snf(M):
    m, n = len(M), len(M[0]) if M else 0
    U, D, V = smith_normal_form(M)
    assert mat_mul(mat_mul(U, [list(r) for r in M]), V) == D
    assert det_bareiss(U) in (1, -1)
    assert det_bareiss(V) in (1, -1)
    for i in range(m):
        for j in range(n):
            if i != j:
                assert D[i][j] == 0
    diag = snf_diagonal(D)
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    return diag


def test_coprime_diagonal():
    diag = check_snf([[2, 0], [0, 3]])
    assert diag == [1, 6]


def test_identity():
    assert check_snf([[1, 0], [0, 1]]) == [1, 1]


def test_single_zero():
    assert check_snf([[0]]) == [0]


def test_rectangular():
    check_snf([[2, 4, 4]])
    check_snf([[2], [4], [4]])
    assert check_snf([[2, 4, 4], [-6, 6, 12]]) == [2, 6]


def test_random_matrices_200():
    rng = random.Random(20240917)
    for _ in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        check_snf(M)


# --- Smith form against the entry-by-entry reference ------------------------

@st.composite
def snf_inputs(draw, size=8):
    # m x n up to size x size, entries up to 10^30 at a drawn density, with
    # zero rows and columns, repeated rows and entries of absolute value 1 common
    m, n = draw(st.integers(1, size)), draw(st.integers(1, size))
    rng = random.Random(draw(st.integers(0, 2**32)))
    bound = 10 ** draw(st.sampled_from((0, 1, 3, 30)))
    density = draw(st.sampled_from((0.15, 0.5, 1.0)))
    M = [
        [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(m)
    ]
    if draw(st.booleans()):
        M[draw(st.integers(0, m - 1))] = [0] * n
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in M:
            row[j] = 0
    if m > 1 and draw(st.booleans()):
        i, k = rng.sample(range(m), 2)
        M[i] = [rng.randint(-3, 3) * x for x in M[k]]
    return M


@settings(max_examples=400, derandomize=True, deadline=None)
@given(snf_inputs())
def test_snf_matches_reference(M):
    assert smith_normal_form(M) == reference_smith_normal_form(M)


@pytest.mark.skipif(importlib.util.find_spec("sympy") is None, reason="sympy is test-only")
@settings(max_examples=100, derandomize=True, deadline=None)
@given(snf_inputs(5))
def test_snf_determinant_and_kernel_match_sympy(M):
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    # the Smith diagonal: sympy lists the zero invariant factors as well
    expected = [d for d in invariant_factors(Matrix(M), domain=ZZ) if d]
    assert [d for d in snf_diagonal(smith_normal_form(M)[1]) if d] == expected
    # the determinant of the leading square block, exact and over GF(p)
    k = min(len(M), len(M[0]))
    square = [row[:k] for row in M[:k]]
    det = Matrix(square).det()
    assert det_bareiss(square) == det
    for p in (3, 2**31 - 1):
        assert det_bareiss(square, p) == det % p
    # the kernel of the first row: a saturated basis of the right size
    row = M[0]
    kern = kernel_basis(smith_normal_form([row]))
    assert all(sum(map(mul, row, v)) == 0 for v in kern)
    assert len(kern) == len(row) - Matrix([row]).rank()
    if kern:
        assert set(invariant_factors(Matrix(kern).T, domain=ZZ)) == {1}


def test_snf_matches_reference_on_gram_and_picard_matrices():
    from hkcert.lattice import _gram_times, build_lambda

    cases = []
    for n in range(2, 7):
        L = build_lambda(n)
        cases.append([list(r) for r in L.gram])
    # Picard-shaped: rho vectors with entries in [-3, 3] on e1, f1, e2, f2
    # and delta, as 23 x rho columns and as rho x 23 pairing rows
    rng = random.Random(15)
    for _ in range(60):
        L = build_lambda(rng.randint(2, 6))
        rho = rng.randint(2, 4)
        vecs = []
        for _ in range(rho):
            coords = [0] * L.rank
            for idx in (0, 1, 2, 3, L.rank - 1):
                coords[idx] = rng.randint(-3, 3)
            vecs.append(L.vector(coords))
        cases.append([[v.coords[i] for v in vecs] for i in range(L.rank)])
        cases.append([_gram_times(v) for v in vecs])
    for M in cases:
        assert smith_normal_form(M) == reference_smith_normal_form(M)


def test_solve_integer():
    M = [[2, 0], [0, 3]]
    data = sparse_smith_form(M)
    assert solve_integer(data, [4, 9]) == [2, 3]
    assert solve_integer(data, [1, 0]) is None
    # inconsistent system
    M = [[1, 1], [1, 1]]
    data = sparse_smith_form(M)
    assert solve_integer(data, [1, 2]) is None
    x = solve_integer(data, [3, 3])
    assert x is not None and x[0] + x[1] == 3


@st.composite
def integer_systems(draw):
    # (M, b) with M m x n: dense random entries, up to 10^30, make U of the
    # Smith form dense (about 80% of its entries nonzero on draws like these,
    # where the corpus's Picard U is nearly a permutation), and a dependent
    # row or a zero row makes M rank deficient; b is M x, M x moved by one in
    # one entry, 0 or random
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    bound = 10 ** draw(st.sampled_from((1, 30)))
    M = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        a, c = rng.randint(-3, 3), rng.randint(-3, 3)
        M[-1] = [a * x + c * y for x, y in zip(M[0], M[1])]
    if draw(st.booleans()):
        M[rng.randrange(m)] = [0] * n
    kind = draw(st.sampled_from(("image", "moved", "zero", "random")))
    if kind == "random":
        return M, [rng.randint(-bound, bound) for _ in range(m)]
    b = mat_vec(M, [rng.randint(-bound, bound) for _ in range(n)])
    if kind == "moved":
        b[rng.randrange(m)] += 1
    return M, [0] * m if kind == "zero" else b


@settings(max_examples=300, derandomize=True, deadline=None)
@given(integer_systems())
def test_solve_integer_matches_dense_reference(case):
    # the sparse solver against the dense mat_vec(U, b), mat_vec(V, y) one on
    # the same Smith form; the sparse columns hold exactly U's and V's entries
    M, b = case
    U, D, V = smith_normal_form(M)
    cols_u, sparse_d, cols_v = data = sparse_smith_form(M)
    assert sparse_d == D
    for dense, cols in ((U, cols_u), (V, cols_v)):
        assert [[dict(c).get(i, 0) for c in cols] for i in range(len(dense))] == dense
    x = solve_integer(data, b)
    assert x == dense_solve_integer((U, D, V), b)
    assert x is None or mat_vec(M, x) == b


def test_kernels():
    M = [[1, 2, 3]]
    data = smith_normal_form(M)
    for v in kernel_basis(data):
        assert v[0] + 2 * v[1] + 3 * v[2] == 0
    assert len(kernel_basis(data)) == 2
    # the left kernel: the rows of U past the rank
    Mt = [[1], [2], [3]]
    U, D, _ = smith_normal_form(Mt)
    rows = U[len([d for d in snf_diagonal(D) if d]):]
    assert len(rows) == 2
    for y in rows:
        assert y[0] + 2 * y[1] + 3 * y[2] == 0


def test_kernel_saturated():
    # kernel of [2, 4] must contain (2, -1), not only (4, -2)
    data = smith_normal_form([[2, 4]])
    basis = kernel_basis(data)
    assert len(basis) == 1
    v = basis[0]
    assert abs(v[0] * 1 - 0) >= 0 and 2 * v[0] + 4 * v[1] == 0
    from math import gcd

    assert gcd(v[0], v[1]) == 1


def test_hermite_rows_canonical():
    rows = hermite_rows([[0, 2, 1], [0, 4, 0]])
    # pivots positive, entries above pivots reduced
    assert rows == [[0, 2, 1], [0, 0, 2]] or rows == hermite_rows(rows)
    # canonical: applying again is a fixed point
    assert hermite_rows(rows) == rows
    # invariance under row order
    assert hermite_rows([[0, 4, 0], [0, 2, 1]]) == rows


@st.composite
def row_lists(draw):
    # up to 7 rows of width 1-6 with small entries, often zero; a repeated
    # or combined row and a zero row make the rank deficient
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=5))
    if draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * n)
    return rows


def _in_row_span(rows, target):
    # whether target is an integer combination of rows
    if not rows:
        return not any(target)
    return solve_integer(sparse_smith_form([list(col) for col in zip(*rows)]), target) is not None


@settings(max_examples=200, derandomize=True, deadline=None)
@given(row_lists())
def test_hermite_rows_is_an_hnf_of_the_same_lattice(rows):
    # the row HNF of a lattice is unique, so these properties pin the output
    H = hermite_rows(rows)
    pivots = [next(j for j, x in enumerate(h) if x) for h in H if any(h)]
    assert len(pivots) == len(H)
    assert all(h[p] > 0 for h, p in zip(H, pivots))
    assert pivots == sorted(set(pivots))
    assert all(0 <= g[p] < h[p] for i, (h, p) in enumerate(zip(H, pivots)) for g in H[:i])
    assert all(_in_row_span(H, r) for r in rows)
    assert all(_in_row_span(rows, h) for h in H)


@pytest.mark.skipif(importlib.util.find_spec("sympy") is None, reason="sympy is test-only")
def test_hermite_rows_match_sympy():
    # sympy's hermite_normal_form is the column HNF with its pivots at the
    # bottom, and its zero columns dropped; so take it of the transpose of M
    # with its columns reversed, read each of its columns from the bottom up
    # as a row, and list those rows in reverse order
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    rng = random.Random(2024)
    for _ in range(2000):
        m, n = rng.randint(1, 5), rng.randint(1, 7)
        density = rng.choice((0.3, 0.7, 1.0))
        M = [[rng.randint(-30, 30) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:
            M[rng.randrange(m)] = [0] * n
        if m > 1 and rng.random() < 0.3:
            i, k = rng.sample(range(m), 2)
            M[i] = [rng.randint(-3, 3) * x + rng.randint(-3, 3) * y for x, y in zip(M[k], M[i - 1])]
        H = hermite_normal_form(Matrix([row[::-1] for row in M]).T)
        rows = [[int(H[i, j]) for i in reversed(range(H.rows))] for j in range(H.cols)]
        assert hermite_rows(M) == rows[::-1], M


@st.composite
def wide_row_lists(draw):
    # 1-22 rows of 23 entries up to 10^30 at a drawn density, as a Picard
    # basis in Lambda's coordinates; a zero row and a combination of two
    # rows make the rank deficient
    m = draw(st.integers(1, 22))
    rng = random.Random(draw(st.integers(0, 2**32)))
    bound = 10 ** draw(st.sampled_from((1, 3, 30)))
    density = draw(st.sampled_from((0.2, 0.5, 1.0)))
    rows = [[rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(23)] for _ in range(m)]
    if draw(st.booleans()):
        rows[rng.randrange(m)] = [0] * 23
    if m > 1 and draw(st.booleans()):
        i, k = rng.sample(range(m), 2)
        rows[i] = [rng.randint(-3, 3) * x + rng.randint(-3, 3) * y for x, y in zip(rows[k], rows[i - 1])]
    return rows


@settings(max_examples=150, derandomize=True, deadline=None)
@given(wide_row_lists())
def test_hermite_rows_entries_within_the_minor_bound(rows):
    """Every entry of the HNF H of an m x 23 matrix M with b-bit entries has
    at most r*(b + 3) bits, r the rank.

    Let J be the pivot columns of H.  M = C H with C integral of rank r, so
    some r rows I of M have M_I = C_I H with C_I invertible, and
    det M_IJ = det C_I det H_J: the product of the pivots divides
    det M_IJ != 0.  By Hadamard |det M_IJ| < (sqrt(r) 2^b)^r, which
    bounds each pivot and so each entry of a pivot column (reduced into
    [0, pivot)).  In a column k off J, H_k = H_J M_IJ^-1 M_Ik, and by
    Cramer's rule each entry of M_IJ^-1 M_Ik is an r x r minor of M over
    det M_IJ, while each entry of H_J is at most a pivot, hence at most
    |det M_IJ|: the entry is under r of those minors, r (sqrt(r) 2^b)^r.
    That has log2(r) (1 + r/2) + r*b < r*(b + 3) - 1 bits for r <= 23.
    """
    H = hermite_rows(rows)
    b = max(x.bit_length() for row in rows for x in row)
    assert all(x.bit_length() <= len(H) * (b + 3) for h in H for x in h)


# --- products against the naive triple sum ----------------------------------

def naive_mat_mul(A, B):
    cols = len(B[0]) if B else 0
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(cols)]
            for i in range(len(A))]


def naive_mat_vec(A, x):
    return [sum(row[k] * x[k] for k in range(len(x))) for row in A]


@st.composite
def products(draw):
    # (A, B, x) with A m x k, B k x n and x of length k, any of m, k, n zero;
    # entries up to 10^300 at a drawn density, so zero entries and zero rows
    # are common; rows are lists or tuples, as callers pass both
    m, k, n = (draw(st.integers(0, 6)) for _ in range(3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    bound = 10 ** draw(st.sampled_from((1, 30, 300)))
    density = draw(st.sampled_from((0.0, 0.15, 0.5, 1.0)))

    def entry():
        return rng.randint(-bound, bound) if rng.random() < density else 0

    A = [[entry() for _ in range(k)] for _ in range(m)]
    B = [[entry() for _ in range(n)] for _ in range(k)]
    x = [entry() for _ in range(k)]
    if m and draw(st.booleans()):
        A[draw(st.integers(0, m - 1))] = [0] * k
    if k and draw(st.booleans()):
        B[draw(st.integers(0, k - 1))] = [0] * n
    if draw(st.booleans()):
        A, B = [tuple(r) for r in A], [tuple(r) for r in B]
    return A, B, x


@settings(max_examples=300, derandomize=True, deadline=None)
@given(products())
def test_products_match_naive_triple_sum(case):
    A, B, x = case
    assert mat_mul(A, B) == naive_mat_mul(A, B)
    assert mat_vec(A, x) == naive_mat_vec(A, x)


def test_products_of_empty_shapes():
    assert mat_mul([], []) == []
    assert mat_mul([[], []], []) == [[], []]
    assert mat_mul([[0, 0]], [[1, 2, 3], [4, 5, 6]]) == [[0, 0, 0]]
    assert mat_mul([[1, 2]], [[], []]) == [[]]
    assert mat_vec([], [1, 2]) == []
    assert mat_vec([[], []], []) == [0, 0]


def test_gram_signature():
    assert gram_signature([[2, 0], [0, -2]]) == (1, 1, 0)
    assert gram_signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert gram_signature([[2]]) == (1, 0, 0)
    assert gram_signature([[-2, 1], [1, -2]]) == (0, 2, 0)
    assert gram_signature([[0, 0], [0, 0]]) == (0, 0, 2)


def test_gram_signature_random_congruent():
    # signature is invariant under X -> P^T X P for unimodular P
    rng = random.Random(7)
    base = [[2, 1, 0], [1, -2, 0], [0, 0, -2]]
    for _ in range(40):
        P = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for _ in range(6):
            i, j = rng.sample(range(3), 2)
            c = rng.randint(-2, 2)
            for row in P:
                row[j] += c * row[i]
        Pt = [list(col) for col in zip(*P)]
        X = mat_mul(mat_mul(Pt, base), P)
        assert gram_signature(X) == gram_signature(base)


def _symmetric(rng, n, bound, diagonal=True):
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i if diagonal else i + 1, n):
            A[i][j] = A[j][i] = rng.choice((0, rng.randint(-bound, bound)))
    return A


def _reference_cases(rng, n, bound):
    # plain symmetric; a zero diagonal, where the reduction pivots on
    # e_i + e_j; a rank-one leading block (its first entry zero at times), so
    # that the leading minors from order 2 up to the block's size vanish; and
    # P^T D P, rank-deficient when D or P is
    yield _symmetric(rng, n, bound)
    yield _symmetric(rng, n, bound, diagonal=False)
    A = _symmetric(rng, n, bound)
    k, s = rng.randint(1, n), rng.choice((-1, 1)) * rng.randint(1, bound)
    u = [rng.choice((0, rng.randint(-3, 3))) for _ in range(k)]
    for i in range(k):
        for j in range(k):
            A[i][j] = s * u[i] * u[j]
    yield A
    D = [[0] * n for _ in range(n)]
    for i in range(rng.randint(0, n)):
        D[i][i] = rng.choice((-1, 1)) * rng.randint(1, bound)
    P = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    yield mat_mul(mat_mul([list(col) for col in zip(*P)], D), P)


def test_gram_signature_matches_the_reference():
    # the Lagrange reduction against Descartes' rule on the characteristic
    # polynomial, over sizes 1-6 with entries up to 10 and up to 10^20; the
    # sub-Grams of the sampler's golden cells are checked in
    # test_sampler_stream.py, which draws them
    rng = random.Random(33)
    kinds = set()
    for n in range(1, 7):
        for bound in (10, 10**20):
            for _ in range(120):
                for kind, G in enumerate(_reference_cases(rng, n, bound)):
                    signature = gram_signature(G)
                    assert signature == reference_gram_signature(G), G
                    kinds.add((kind, signature[2] > 0))
    # each kind of form came up both degenerate and not
    assert len(kinds) == 8


@st.composite
def symmetric_matrices(draw):
    # sizes 1-6: plain symmetric matrices, and products P^T D P with D
    # diagonal of a drawn rank, so that rank-deficient ones are common
    n = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        A = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                A[i][j] = A[j][i] = rng.randint(-5, 5)
        return A
    D = [[0] * n for _ in range(n)]
    for i in range(draw(st.integers(0, n))):
        D[i][i] = rng.choice((-1, 1)) * rng.randint(1, 4)
    P = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    return mat_mul(mat_mul([list(col) for col in zip(*P)], D), P)


@pytest.mark.skipif(importlib.util.find_spec("sympy") is None, reason="sympy is test-only")
@settings(max_examples=100, derandomize=True, deadline=None)
@given(symmetric_matrices())
def test_gram_signature_matches_sympy_eigenvalue_signs(G):
    import sympy

    # the eigenvalues as the exactly isolated real roots of sympy's own
    # characteristic polynomial, with multiplicity
    eigenvalues = sympy.Matrix(G).charpoly(sympy.Symbol("x")).real_roots()
    assert len(eigenvalues) == len(G)
    pos = sum(1 for ev in eigenvalues if ev > 0)
    neg = sum(1 for ev in eigenvalues if ev < 0)
    zero = sum(1 for ev in eigenvalues if ev == 0)
    assert gram_signature(G) == (pos, neg, zero)


# --- determinant over GF(p) -------------------------------------------------

@st.composite
def square_matrices(draw):
    # shape and special structure from hypothesis, entries from a seeded rng
    n = draw(st.integers(1, 23))
    digits = draw(st.sampled_from((1, 2, 300)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    bound = 10**digits
    M = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        M[draw(st.integers(0, n - 1))] = [0] * n
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in M:
            row[j] = 0
    if n > 1 and draw(st.booleans()):
        # singular mod 3, though usually not over the integers
        i, j = rng.sample(range(n), 2)
        M[i] = [x + 3 * rng.randint(-bound, bound) for x in M[j]]
    return M


@settings(max_examples=150, derandomize=True, deadline=None)
@given(square_matrices())
def test_det_mod_3_matches_exact_determinant(M):
    assert det_bareiss(M, 3) == det_bareiss(M) % 3


def test_det_mod_p_small_cases():
    assert det_bareiss([], 3) == 1
    assert det_bareiss([[5]], 3) == 2
    assert det_bareiss([[0, 1], [1, 0]], 3) == 2          # det -1
    assert det_bareiss([[3, 1], [1, 3]], 3) == 2          # det 8, pivot 0 mod 3
    assert det_bareiss([[2, 4], [1, 2]], 3) == 0          # singular
    assert det_bareiss([[3, 6], [9, 3]], 3) == 0          # 0 mod 3, det -45
    M = [[4, 1, 7], [2, 9, 5], [8, 3, 6]]
    for p in (2, 3, 5, 7, 101):
        assert det_bareiss(M, p) == det_bareiss(M) % p
