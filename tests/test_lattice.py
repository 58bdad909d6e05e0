import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hkcert.construction import (
    _extended_gcd_combination,
    _hyperbolic_pairs,
    _isometry_of_ops,
    _reduction_ops,
    _step_to_residue,
    first_orthogonal_tuple,
    graded_coefficient_tuples,
    isometry_between,
    orthogonal_complement_basis,
    search_order_key,
)
from hkcert.certificate import verify_payload
from hkcert.errors import ConstructionInvariantViolated, SearchExhausted
from hkcert.lattice import (
    CACHE_SIZE,
    DELTA_INDEX,
    GramLattice,
    Isometry,
    RationalClass,
    acts_trivially_on_discriminant,
    build_k3_lattice,
    build_lambda,
    direct_sum,
    discriminant_group,
    divisibility,
    _discriminant_generators,
    _gram_times,
    _span_snf,
    hyperbolic_plane,
    in_span_plus_lattice,
    is_primitive,
    norm,
    pair,
    span_lattice_witness,
)
from hkcert.sampler import line_box_interval, positive_on_interval
from hkcert.snf import det_bareiss, mat_mul, mat_vec, snf_diagonal, solve_integer
from lattice_reference import (
    DenseReduction,
    dense_form_value,
    eichler_transvection,
    first_hit_reference,
    isometry_of_ops_full,
    orthogonal_complement_basis as dense_complement_basis,
)
from lattice_reference import in_span_plus_lattice as dense_in_span_plus_lattice
from lattice_reference import raw_span_snf
from lattice_reference import solve_integer as dense_solve_integer
from test_corpus import CORPUS, certified, hostile_pic_payload


# --- builders ---------------------------------------------------------------

def test_build_lambda_delta_square():
    for n in (2, 3, 5):
        L = build_lambda(n)
        assert L.rank == 23
        assert norm(L.basis_vector(DELTA_INDEX)) == 2 - 2 * n


def test_build_lambda_hyperbolic_blocks():
    L = build_lambda(3)
    assert pair(L.basis_vector(0), L.basis_vector(1)) == 1
    assert norm(L.basis_vector(0)) == 0
    assert pair(L.basis_vector(DELTA_INDEX), L.basis_vector(0)) == 0


def gram_det(L):
    return det_bareiss([list(r) for r in L.gram])


def test_build_lambda_determinant():
    assert abs(gram_det(build_lambda(4))) == 6
    assert abs(gram_det(build_lambda(2))) == 2
    assert abs(gram_det(build_k3_lattice())) == 1


def test_build_lambda_rejects_small_n():
    with pytest.raises(ValueError):
        build_lambda(1)


def test_e8_block_is_even_negative():
    L = build_k3_lattice()
    for i in range(6, 22):
        assert L.gram[i][i] == -2


def test_invalid_gram_rejected():
    with pytest.raises(ValueError):
        GramLattice(2, ((0, 1), (0, 0)))   # not symmetric
    with pytest.raises(ValueError):
        GramLattice(2, ((1, 1), (1, 1)))   # degenerate
    p = 2**31 - 1  # the nondegeneracy check's prime: det 0 mod p needs the exact det
    assert GramLattice(1, ((p,),)).rank == 1
    assert GramLattice(2, ((p + 1, 1), (1, 1))).rank == 2
    with pytest.raises(ValueError):
        GramLattice(2, ((p, 2 * p), (2 * p, 4 * p)))   # degenerate, 0 mod p too


# --- pairings ---------------------------------------------------------------

def test_pair_examples(lam2):
    e1, f1 = lam2.basis_vector(0), lam2.basis_vector(1)
    delta = lam2.basis_vector(DELTA_INDEX)
    assert pair(e1, f1) == 1
    assert pair(delta, e1) == 0
    assert norm(e1 + delta) == -2   # 0 + 2*0 + (2-2n) at n=2


def test_pair_lattice_mismatch(lam2, uu):
    with pytest.raises(ValueError):
        pair(lam2.basis_vector(0), uu.basis_vector(0))


# every build_lambda(n) of the corpus, and a lattice with off-diagonal Gram
# entries outside the hyperbolic planes
_PAIRING_LATTICES = [build_lambda(n) for n in range(2, 7)] + [
    direct_sum(hyperbolic_plane(), GramLattice(2, ((-2, 1), (1, -2))), label="U+A2(-1)")
]


@st.composite
def _pairing_cases(draw):
    # two vectors with entries up to 10^30, each of full support or on at
    # most 4 drawn coordinates
    L = draw(st.sampled_from(_PAIRING_LATTICES))

    def vec():
        full = draw(st.booleans())
        support = range(L.rank) if full else draw(st.sets(st.integers(0, L.rank - 1), max_size=4))
        return L.vector([draw(st.integers(-(10**30), 10**30)) if i in support else 0 for i in range(L.rank)])

    return L, vec(), vec()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_pairing_cases())
def test_sparse_pairings_match_dense_products(case):
    # _gram_times and pair sum over the sparse Gram rows; the dense G v and
    # v . G w are their reference
    L, v, w = case
    assert _gram_times(v) == mat_vec(L.gram, v.coords)
    assert pair(v, w) == sum(x * y for x, y in zip(v.coords, mat_vec(L.gram, w.coords)))


def test_divisibility_examples(lam2):
    e1, f1 = lam2.basis_vector(0), lam2.basis_vector(1)
    delta = lam2.basis_vector(DELTA_INDEX)
    assert divisibility(e1) == 1
    assert divisibility(delta) == 2
    assert divisibility(2 * e1 + 2 * f1) == 2
    assert divisibility(lam2.zero()) == 0


def test_divisibility_brute_force_oracle():
    # gcd of |(v, x)| over all x with coordinates in {-2..2} equals div(v)
    rng = random.Random(424242)
    small = direct_sum(
        hyperbolic_plane(), hyperbolic_plane(), GramLattice(1, ((-4,),)), label="rank5"
    )
    tiny = direct_sum(hyperbolic_plane(), GramLattice(2, ((-2, 1), (1, -2))))
    for L in (small, tiny):
        for _ in range(50):
            v = L.vector([rng.randint(-4, 4) for _ in range(L.rank)])
            if v.is_zero():
                continue
            g = 0
            for coords in _box_vectors(L.rank, 2):
                x = L.vector(coords)
                g = gcd(g, abs(pair(v, x)))
            assert g == divisibility(v)


def _box_vectors(rank, bound):
    if rank == 0:
        yield ()
        return
    for rest in _box_vectors(rank - 1, bound):
        for c in range(-bound, bound + 1):
            yield (c,) + rest


def test_divisibility_scales(lam2):
    rng = random.Random(11)
    for _ in range(30):
        v = lam2.vector([rng.randint(-3, 3) for _ in range(23)])
        if v.is_zero() or not is_primitive(v):
            continue
        k = rng.choice((-7, -3, -2, 2, 3, 7))
        assert divisibility(k * v) == abs(k) * divisibility(v)


def test_is_primitive(lam2):
    e1 = lam2.basis_vector(0)
    f1 = lam2.basis_vector(1)
    delta = lam2.basis_vector(DELTA_INDEX)
    assert is_primitive(e1 + delta)
    assert not is_primitive(3 * delta)
    assert is_primitive(2 * e1 + 5 * f1 + 2 * delta)
    assert not is_primitive(lam2.zero())


# --- discriminant groups ----------------------------------------------------

def test_discriminant_groups(lam2):
    assert discriminant_group(build_k3_lattice()) == ()
    assert discriminant_group(lam2) == (2,)
    assert discriminant_group(hyperbolic_plane()) == ()
    assert discriminant_group(build_lambda(4)) == (6,)


def test_discriminant_factor_product_is_det():
    for L in (build_lambda(2), build_lambda(5), hyperbolic_plane(),
              GramLattice(2, ((2, 0), (0, 4)))):
        prod = 1
        for d in discriminant_group(L):
            prod *= d
        assert prod == abs(gram_det(L))


def test_rational_class_normalization(lam2):
    v = lam2.vector([2, 4] + [0] * 21)
    q = RationalClass(v, 6)
    assert q.denominator == 3
    assert q.numerator == lam2.vector([1, 2] + [0] * 21)
    q = RationalClass(v, -2)
    assert q.denominator == 1
    assert q.numerator == lam2.vector([-1, -2] + [0] * 21)
    with pytest.raises(ValueError):
        RationalClass(v, 0)


# --- Eichler transvections --------------------------------------------------

def test_transvection_pinned_convention(uu):
    e1, f1, e2, f2 = (uu.basis_vector(i) for i in range(4))
    t = eichler_transvection(e1, e2)
    assert t.apply(f1) == f1 + e2
    assert t.apply(e1) == e1
    assert t.apply(f2) == f2 - e1
    assert norm(t.apply(f2)) == 0


def test_transvection_preconditions(uu):
    e1, f1 = uu.basis_vector(0), uu.basis_vector(1)
    with pytest.raises(ValueError):
        eichler_transvection(e1 + f1, uu.basis_vector(2))   # e not isotropic
    with pytest.raises(ValueError):
        eichler_transvection(e1, f1)                        # not orthogonal


def test_transvection_invariants(lam2):
    rng = random.Random(5150)
    e1 = lam2.basis_vector(0)
    for _ in range(25):
        coords = [0, 0] + [rng.randint(-2, 2) for _ in range(20)] + [rng.randint(-1, 1)]
        a = lam2.vector(coords)   # orthogonal to e1 by construction
        t = eichler_transvection(e1, a)
        assert t.det() == 1
        assert acts_trivially_on_discriminant(t)
        v = lam2.vector([rng.randint(-3, 3) for _ in range(23)])
        assert norm(t.apply(v)) == norm(v)


def test_transvection_inverse(uu):
    e1, e2 = uu.basis_vector(0), uu.basis_vector(2)
    t = eichler_transvection(e1, e2)
    s = eichler_transvection(e1, -e2)
    v = uu.vector([3, -1, 4, 2])
    assert s.apply(t.apply(v)) == v


def test_sparse_gram_rows():
    for n in range(2, 7):
        L = build_lambda(n)
        assert max(len(row) for row in L.sparse_rows) == 4
        for i, row in enumerate(L.sparse_rows):
            assert row == tuple((j, x) for j, x in enumerate(L.gram[i]) if x)


# --- isometry determinant and Gram check ------------------------------------

def test_isometry_det_matches_bareiss(lam2):
    rng = random.Random(7331)
    n = lam2.rank
    e = [lam2.basis_vector(i) for i in range(4)]
    for _ in range(10):
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(6):
            k = rng.choice((0, 1, 2, 3))
            other = rng.choice([i for i in range(4) if i // 2 != k // 2])
            t = eichler_transvection(e[k], rng.choice((-3, -1, 2)) * e[other])
            m = mat_mul([list(r) for r in t.matrix], m)
        prod = Isometry(tuple(map(tuple, m)), lam2)
        assert prod.det() == det_bareiss(m) == 1
        assert det_bareiss(m, 3) == 1
    # reflection in the norm -2 root r = e1 - f1: x -> x + (x, r) r
    r = lam2.basis_vector(0) - lam2.basis_vector(1)
    cols = [(lam2.basis_vector(j) + pair(lam2.basis_vector(j), r) * r).coords for j in range(n)]
    refl = Isometry(tuple(zip(*cols)), lam2)
    assert refl.det() == det_bareiss(refl.matrix) == -1
    assert det_bareiss(refl.matrix, 3) == 2
    assert acts_trivially_on_discriminant(refl)


@pytest.mark.parametrize("n", range(2, 7))
def test_minus_identity_det(n):
    L = build_lambda(n)
    minus = Isometry(tuple(tuple(-int(i == j) for j in range(23)) for i in range(23)), L)
    assert minus.det() == det_bareiss(minus.matrix) == -1
    assert det_bareiss(minus.matrix, 3) == 2


def test_non_isometry_rejected(lam2):
    n = lam2.rank
    for i, j, k in ((0, 0, 2), (5, 7, 1), (DELTA_INDEX, DELTA_INDEX, 3)):
        m = [[int(a == b) for b in range(n)] for a in range(n)]
        m[i][j] += k
        with pytest.raises(ValueError, match="matrix does not preserve the Gram form"):
            Isometry(tuple(map(tuple, m)), lam2)


# --- constructive isometries ------------------------------------------------

def test_isometry_identity_on_equal(lam2):
    v = lam2.basis_vector(0) + lam2.basis_vector(2)
    iso = isometry_between(v, v)
    assert iso.apply(v) == v


def test_isometry_example_e1_e2(lam2):
    v, w = lam2.basis_vector(0), lam2.basis_vector(2)
    iso = isometry_between(v, w)
    assert iso.apply(v) == w


def test_isometry_mismatch(lam2):
    e1 = lam2.basis_vector(0)
    delta = lam2.basis_vector(DELTA_INDEX)
    with pytest.raises(ValueError, match=r"^norm mismatch: 0 != -2$"):
        isometry_between(e1, delta)   # norms 0 vs -2, divisibility 1 vs 2


def test_isometry_divisibility_two_rejected(lam2):
    delta = lam2.basis_vector(DELTA_INDEX)
    with pytest.raises(ValueError, match=r"^only divisibility 1 is implemented, got 2$"):
        isometry_between(delta, delta + lam2.zero())


def test_isometry_zero_vector_rejected(lam2):
    # the zero vector has divisibility 0, which no isometry is built for
    with pytest.raises(ValueError, match=r"^only divisibility 1 is implemented, got 0$"):
        isometry_between(lam2.zero(), lam2.zero())


def test_isometry_needs_two_planes():
    U = hyperbolic_plane()
    message = "^lattice needs two orthogonal hyperbolic planes among its basis blocks$"
    with pytest.raises(ValueError, match=message):
        isometry_between(U.basis_vector(0), U.basis_vector(1))


def test_isometry_random_pairs(lam2):
    # same norm + primitivity + divisibility 1 always yields an exact match
    rng = random.Random(90125)
    done = 0
    while done < 25:
        v = lam2.vector([rng.randint(-3, 3) for _ in range(23)])
        if v.is_zero() or not is_primitive(v) or divisibility(v) != 1:
            continue
        # build w of the same norm by transporting v with a couple of
        # transvections, then perturbing the path
        t1 = eichler_transvection(lam2.basis_vector(0), lam2.basis_vector(2))
        t2 = eichler_transvection(
            lam2.basis_vector(3), 2 * lam2.basis_vector(1) - lam2.basis_vector(4)
        )
        w = t2.apply(t1.apply(v))
        iso = isometry_between(v, w)
        assert iso.apply(v) == w
        assert iso.det() == 1
        assert acts_trivially_on_discriminant(iso)
        assert norm(iso.apply(v)) == norm(v)
        assert divisibility(iso.apply(v)) == divisibility(v)
        done += 1


def test_isometry_large_norm(lam2):
    h = lam2.vector([1, 4614] + [0] * 21)
    src = h - 48 * lam2.basis_vector(DELTA_INDEX)
    tgt = lam2.vector([2, 5, 48, 48] + [0] * 18 + [2])
    assert norm(src) == norm(tgt) == 4620
    iso = isometry_between(src, tgt)
    assert iso.apply(src) == tgt


def test_isometry_negative_norm(lam2):
    v = lam2.basis_vector(0) - lam2.basis_vector(1)           # norm -2
    w = lam2.vector([0, 0, 1, -1] + [0] * 19)                 # e2 - f2, norm -2
    assert norm(v) == norm(w) == -2
    iso = isometry_between(v, w)
    assert iso.apply(v) == w


def test_isometry_from_canonical_form(lam2):
    v = lam2.basis_vector(0) + 3 * lam2.basis_vector(1)       # e1 + 3 f1
    w = lam2.vector([0, 0, 1, 3] + [0] * 19)                  # e2 + 3 f2
    iso = isometry_between(v, w)
    assert iso.apply(v) == w


# --- sparse reduction against the dense reference ---------------------------

def _reduce(v, budget=10000):
    return _reduction_ops(_hyperbolic_pairs(v.lattice), budget, v, norm(v) // 2)


def _reduce_dense(v, budget=10000):
    L = v.lattice
    return DenseReduction(L, _hyperbolic_pairs(L), budget).run(v)


def _corpus_transports():
    # (source, epsilon * target, sigma) of every corpus certificate
    for entry in CORPUS:
        rec = certified(entry)[0]
        yield rec.source, rec.epsilon * rec.target, rec.sigma


def test_reduction_matches_dense_reference_on_corpus():
    for source, target, sigma in _corpus_transports():
        ops_v, ops_w = _reduce(source), _reduce(target)
        assert ops_v == _reduce_dense(source)
        assert ops_w == _reduce_dense(target)
        iso = isometry_between(source, target)
        assert iso.apply(source) == target
        assert iso.matrix == sigma.matrix
        assert isometry_of_ops_full(ops_v, ops_w, source.lattice).matrix == sigma.matrix


@pytest.mark.parametrize("coords, message", [
    ([0, 0, 0, 0, 2, 2], "divisibility-1 precondition violated"),    # 2e3 + 2f3: no U1 + U2 part
    ([2, 2, 2, 2], "pairing gcd exceeded 1 during reduction"),       # 2(e1 + f1 + e2 + f2)
])
def test_reduction_of_divisibility_two_is_a_construction_bug(lam2, coords, message):
    # isometry_between refuses divisibility 2 before it reduces; called past
    # that refusal, each of the reduction's guards raises the bug signal
    v = lam2.vector(coords + [0] * (lam2.rank - len(coords)))
    assert divisibility(v) == 2
    with pytest.raises(ConstructionInvariantViolated, match=f"^{message}$"):
        _reduce(v)


@pytest.mark.parametrize("index", [1, 2, 61])
def test_reduction_budget_matches_dense_reference(index):
    # every budget below the op count stops both reductions with the same
    # message; the op count itself lets both finish
    source = certified(CORPUS[index])[0].source
    count = len(_reduce_dense(source))
    assert count > 5
    for budget in range(count + 1):
        outcomes = []
        for reduce in (_reduce, _reduce_dense):
            try:
                outcomes.append(reduce(source, budget))
            except SearchExhausted as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert isinstance(outcomes[0], str) == (budget < count)


_BIG = st.integers(-(10**30), 10**30)
_BIG_NONZERO = _BIG.filter(bool)


@st.composite
def _reduction_vector_pairs(draw):
    # divisibility-1 vectors over Lambda(n); "zero_plane" leaves the two
    # reduction planes empty, "dense_r" fills every other coordinate, so
    # every column moves
    n = draw(st.integers(2, 6))
    L = build_lambda(n)
    vectors = []
    for _ in range(2):
        shape = draw(st.sampled_from(("sparse", "zero_plane", "dense_r")))
        entry = _BIG_NONZERO if shape == "dense_r" else st.one_of(st.just(0), _BIG)
        coords = [draw(entry) for _ in range(L.rank)]
        if shape == "zero_plane":
            coords[:4] = [0, 0, 0, 0]
        v = L.vector(coords)
        assume(not v.is_zero() and divisibility(v) == 1)
        vectors.append(v)
    return vectors


@settings(max_examples=120, derandomize=True, deadline=None)
@given(_reduction_vector_pairs())
def test_reduction_matches_dense_reference_on_big_vectors(vectors):
    v, w = vectors
    ops_v, ops_w = _reduce(v), _reduce(w)
    assert ops_v == _reduce_dense(v)
    assert ops_w == _reduce_dense(w)
    iso = _isometry_of_ops(ops_v, ops_w, v.lattice)
    assert iso.matrix == isometry_of_ops_full(ops_v, ops_w, v.lattice).matrix


_SMALL_OR_BIG = st.one_of(st.integers(-3, 3), _BIG)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_SMALL_OR_BIG, _SMALL_OR_BIG.filter(bool), st.lists(_SMALL_OR_BIG, max_size=6))
@example(0, 1, [])
@example(-7, -7, [0, 0, 0])
@example(10**30, -(10**30), [0, -4, 6, 0])
def test_reduction_helpers(value, modulus, vals):
    # the reduction's two integer helpers: a step into (0, |modulus|], and a
    # combination of the entries equal to their gcd, 0 for an all-zero list
    k = _step_to_residue(value, modulus)
    assert 0 < value + k * modulus <= abs(modulus)
    coeffs = _extended_gcd_combination(vals)
    assert len(coeffs) == len(vals)
    assert sum(c * v for c, v in zip(coeffs, vals)) == gcd(*vals) >= 0


# --- orthogonal complement ----------------------------------------------------

@st.composite
def _complement_inputs(draw):
    # 0 to 5 vectors over Lambda(n): "picard" on e1, f1, e2, f2, delta as the
    # sampler draws them, "no_delta" on some of the 22 coordinates before
    # delta, "full" nonzero at all 23, "zero" the zero vector
    L = build_lambda(draw(st.integers(2, 6)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    bound = draw(st.sampled_from((3, 10**3)))
    vectors = []
    for _ in range(draw(st.integers(0, 5))):
        shape = draw(st.sampled_from(("picard", "no_delta", "full", "zero")))
        coords = [0] * L.rank
        if shape == "picard":
            for i in (0, 1, 2, 3, DELTA_INDEX):
                coords[i] = rng.randint(-bound, bound)
        elif shape == "no_delta":
            for i in rng.sample(range(DELTA_INDEX), rng.randint(1, 6)):
                coords[i] = rng.randint(-bound, bound)
        elif shape == "full":
            coords = [rng.choice((-1, 1)) * rng.randint(1, bound) for _ in range(L.rank)]
        vectors.append(L.vector(coords))
    return L, vectors


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_complement_inputs())
def test_complement_matches_full_width_reference(case):
    L, vectors = case
    basis = orthogonal_complement_basis(L, vectors)
    assert basis == dense_complement_basis(L, vectors)
    assert all(pair(b, v) == 0 for b in basis for v in vectors)


def test_complement_edge_cases(lam2, uu):
    assert orthogonal_complement_basis(lam2, []) == [lam2.basis_vector(i) for i in range(23)]
    assert orthogonal_complement_basis(lam2, [lam2.zero()]) == dense_complement_basis(lam2, [lam2.zero()])
    v = uu.vector([1, 2, 0, 3])
    assert orthogonal_complement_basis(uu, [v]) == dense_complement_basis(uu, [v])
    full = [uu.vector([1, 1, 1, 1]), uu.vector([1, -1, 2, 0]), uu.vector([0, 0, 1, 5]), uu.vector([3, 1, 4, 1])]
    assert orthogonal_complement_basis(uu, full) == [] == dense_complement_basis(uu, full)


# --- rational span membership -----------------------------------------------

def test_in_span_examples(lam2):
    delta = lam2.basis_vector(DELTA_INDEX)
    f1 = lam2.basis_vector(1)
    e2f2 = lam2.vector([0, 0, 1, 1] + [0] * 19)
    pic = (lam2.vector([1] + [0] * 21 + [1]), f1)
    assert not in_span_plus_lattice(RationalClass(delta, 2), ())
    assert in_span_plus_lattice(RationalClass(f1, 5), (f1,))
    assert not in_span_plus_lattice(RationalClass(e2f2, 2), pic)


def test_in_span_integral_always(lam2):
    v = lam2.vector([3, -2, 1] + [0] * 20)
    assert in_span_plus_lattice(RationalClass(v, 1), ())


def test_span_witness_verified_by_fractions(uu):
    # positive answers hand back a witness mu with q - mu in the rational span,
    # checked here by an independent fraction-based rank computation
    rng = random.Random(31415)
    for _ in range(40):
        k = rng.randint(0, 2)
        S = []
        for _ in range(k):
            s = uu.vector([rng.randint(-2, 2) for _ in range(4)])
            if not s.is_zero():
                S.append(s)
        den = rng.randint(1, 4)
        num = uu.vector([rng.randint(-4, 4) for _ in range(4)])
        q = RationalClass(num, den)
        mu = span_lattice_witness(q, tuple(S))
        if mu is None:
            continue
        resid = [Fraction(c, q.denominator) - m for c, m in zip(q.numerator.coords, mu.coords)]
        assert _in_rational_span(resid, [s.coords for s in S])


def _in_rational_span(x, gens):
    cols = [list(g) for g in gens]
    if not cols:
        return all(c == 0 for c in x)
    rows = len(x)
    M = [[Fraction(cols[j][i]) for j in range(len(cols))] + [Fraction(x[i])] for i in range(rows)]
    # fraction Gaussian elimination; consistent iff no pivot in the last column
    piv_row = 0
    for col in range(len(cols)):
        hit = next((r for r in range(piv_row, rows) if M[r][col] != 0), None)
        if hit is None:
            continue
        M[piv_row], M[hit] = M[hit], M[piv_row]
        pv = M[piv_row][col]
        for r in range(rows):
            if r != piv_row and M[r][col] != 0:
                f = M[r][col] / pv
                M[r] = [a - f * b for a, b in zip(M[r], M[piv_row])]
        piv_row += 1
    return all(M[r][-1] == 0 for r in range(piv_row, rows))


def test_in_span_negative_cases_brute_force(uu):
    # when the answer is False, no mu in a generous box may work
    rng = random.Random(2718)
    checked = 0
    while checked < 12:
        S = [uu.vector([rng.randint(-2, 2) for _ in range(4)])]
        if S[0].is_zero():
            continue
        den = rng.randint(2, 3)
        num = uu.vector([rng.randint(-3, 3) for _ in range(4)])
        q = RationalClass(num, den)
        if in_span_plus_lattice(q, tuple(S)):
            continue
        for coords in _box_vectors(4, 3):
            resid = [
                Fraction(c, q.denominator) - m for c, m in zip(q.numerator.coords, coords)
            ]
            assert not _in_rational_span(resid, [s.coords for s in S])
        checked += 1


def test_in_span_constructed_positives(uu):
    # q = (rational combination of S) + integral vector must come back True
    rng = random.Random(1618)
    for _ in range(30):
        S = [
            uu.vector([rng.randint(-2, 2) for _ in range(4)]),
            uu.vector([rng.randint(-2, 2) for _ in range(4)]),
        ]
        den = rng.randint(1, 6)
        coeffs = [rng.randint(-3, 3) for _ in S]
        num = uu.zero()
        for c, s in zip(coeffs, S):
            num = num + c * s
        mu = uu.vector([rng.randint(-3, 3) for _ in range(4)])
        q = RationalClass(num + den * mu, den)
        assert in_span_plus_lattice(q, tuple(S))


@st.composite
def _span_membership_cases(draw):
    # span coordinates of rank 4 (U+U) or 23 (Lambda_2), and q = num/den with
    # num = (combination of the span) + den * mu + a perturbation that may be 0
    rank = draw(st.sampled_from((4, 23)))
    small = st.integers(-3, 3)

    def vec():
        coords = [0] * rank
        for i in draw(st.lists(st.integers(0, rank - 1), min_size=1, max_size=5)):
            coords[i] = draw(small)
        return coords

    kind = draw(st.sampled_from(("empty", "random", "dependent", "non_saturated", "full")))
    if kind == "empty":
        span = []
    elif kind == "full":
        # triangular with nonzero diagonal: full rank, saturated only if the
        # diagonal is +-1
        diag = st.sampled_from((1, -1, 2, 3))
        span = [[0] * i + [draw(diag)] + [draw(small) for _ in range(rank - i - 1)]
                for i in range(rank)]
    else:
        span = [vec() for _ in range(draw(st.integers(1, 3)))]
        if kind == "dependent":
            a, b = draw(small), draw(small)
            span.append([a * x + b * y for x, y in zip(span[0], span[-1])])
        elif kind == "non_saturated":
            k = draw(st.integers(2, 5))
            span[0] = [k * x for x in span[0]]
    den = draw(st.one_of(st.integers(1, 12), st.integers(1, 10**30), st.just(10**30 + 7)))
    coeffs = [draw(st.integers(-(10**30), 10**30)) for _ in span]
    num = [sum(c * s[i] for c, s in zip(coeffs, span)) for i in range(rank)]
    mu = [draw(small) for _ in range(rank)]
    wobble = vec() if draw(st.booleans()) else [0] * rank
    num = [x + den * m + w for x, m, w in zip(num, mu, wobble)]
    return rank, span, num, den


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_span_membership_cases())
def test_in_span_matches_witness_reference(uu, lam2, case):
    rank, span, num, den = case
    L = uu if rank == 4 else lam2
    q = RationalClass(L.vector(num), den)
    S = tuple(L.vector(s) for s in span)
    assert in_span_plus_lattice(q, S) == (span_lattice_witness(q, S) is not None)


@st.composite
def _span_cases(draw):
    # 0-6 span vectors with entries up to 10^30 at a drawn density, with a
    # drawn few coordinates zero in every vector (zero rows of the span
    # matrix); at density 1 the Smith transform U is dense.  A zero vector,
    # a combination of two others (dependent) and a multiple of one (a
    # non-saturated span) each come up; image is an integral combination of
    # the span, off is image moved by one in one entry, and num is image
    # plus den * mu, at times moved by one as well
    rank = draw(st.sampled_from((4, 23)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    bound = 10 ** draw(st.sampled_from((1, 3, 30)))
    density = draw(st.sampled_from((0.3, 1.0)))
    zero_rows = set(rng.sample(range(rank), draw(st.integers(0, rank - 1))))
    span = [[0 if i in zero_rows or rng.random() >= density else rng.randint(-bound, bound) for i in range(rank)]
            for _ in range(draw(st.integers(0, 6)))]
    if span and draw(st.booleans()):
        span[rng.randrange(len(span))] = [0] * rank
    if len(span) > 1 and draw(st.booleans()):
        i, k = rng.sample(range(len(span)), 2)
        a, c = rng.randint(-3, 3), rng.randint(-3, 3)
        span[i] = [a * x + c * y for x, y in zip(span[k], span[i - 1])]
    if span and draw(st.booleans()):
        i = rng.randrange(len(span))
        f = rng.choice((2, 3, 6))
        span[i] = [f * x for x in span[i]]
    image = [0] * rank
    for s in span:
        c = rng.randint(-bound, bound)
        image = [x + c * y for x, y in zip(image, s)]
    off = list(image)
    off[rng.randrange(rank)] += 1
    den = draw(st.sampled_from((1, 2, 6, 10**30 + 7)))
    num = [x + den * rng.randint(-3, 3) for x in image]
    if draw(st.booleans()):
        num[rng.randrange(rank)] += 1
    return rank, span, image, off, num, den


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_span_cases())
def test_span_products_on_the_cached_form_match_dense_reference(uu, lam2, case):
    # in_span_plus_lattice sums over the sparse columns of the cached U, and
    # solve_integer back-substitutes on the cached Hermite rows H; the dense
    # mat_vec(U, x) on the span, and the dense solver on H, whose rows are
    # independent so that the solution is unique, are their references
    rank, span, image, off, num, den = case
    L = uu if rank == 4 else lam2
    q = RationalClass(L.vector(num), den)
    S = tuple(L.vector(s) for s in span)
    assert in_span_plus_lattice(q, S) == dense_in_span_plus_lattice(q, S)
    H = _span_snf(L, tuple(s.coords for s in S))[0]
    for b in (image, off, num):
        assert solve_integer(H, b) == dense_solve_integer(raw_span_snf(H, rank), b)
    assert solve_integer(H, image) is not None


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_span_cases())
def test_span_form_of_the_hermite_rows_matches_the_basis_as_given(uu, lam2, case):
    # the cached form is of the span's Hermite rows; the dense Smith form of
    # the vectors as given spans the same lattice, so the invariant factors,
    # each solvability and each membership verdict must agree
    rank, span, image, off, num, den = case
    L = uu if rank == 4 else lam2
    S = tuple(L.vector(s) for s in span)
    coords = tuple(s.coords for s in S)
    (H, _, factors), raw = _span_snf(L, coords), raw_span_snf(coords, rank)
    assert list(factors) == [d for d in snf_diagonal(raw[1]) if d]
    for b in (image, off, num):
        assert (solve_integer(H, b) is None) == (dense_solve_integer(raw, b) is None)
    assert solve_integer(H, image) is not None
    q = RationalClass(L.vector(num), den)
    assert in_span_plus_lattice(q, S) == dense_in_span_plus_lattice(q, S)


_MEMBERSHIP_FAILURES = [
    ("instance_w_in_pic", ""),
    ("instance_b_orthogonal_pic", ""),
    ("class_a_in_pic", ""),
    ("omega_in_pic", ""),
    ("alpha_is_b_field", ""),
]


@pytest.mark.parametrize("rows", (16, 22, 40))
def test_hostile_picard_bases_fail_the_membership_checks(rows):
    # ROADMAP item 17's hostile bases of 100-digit entries: verify fails
    # exactly the checks that test membership in Pic or orthogonality to it,
    # as it did on the Smith form of the basis as given.  40 rows, past the
    # rank of 23, span all of Lambda (23 invariant factors 1): w, the class
    # A and omega are then in Pic, and verify fails the basis's independence,
    # so its saturation, and B's orthogonality to Pic instead
    checks = verify_payload(hostile_pic_payload(rows, 100))
    assert [(c.name, c.details) for c in checks if not c.ok] == {
        16: _MEMBERSHIP_FAILURES,
        22: _MEMBERSHIP_FAILURES,
        40: [
            ("instance_pic_independent", ""),
            ("instance_pic_saturated", f"invariant factors {[1] * 23}"),
            ("instance_b_orthogonal_pic", ""),
        ],
    }[rows]


# --- search order -----------------------------------------------------------

def test_graded_order_prefix():
    got = list(graded_coefficient_tuples(2, 2))
    assert got[:8] == [
        (0, 1), (0, -1), (1, 0), (-1, 0),
        (0, 2), (0, -2), (1, 1), (1, -1),
    ]


def test_graded_order_respects_bound():
    assert all(max(map(abs, t)) <= 2 for t in graded_coefficient_tuples(3, 2))
    total = len(list(graded_coefficient_tuples(3, 2)))
    assert total == 5 ** 3 - 1


def test_search_order_key_sorts_into_generator_order():
    for length in range(1, 5):
        for bound in range(1, 4):
            everything = [
                t for t in itertools.product(range(-bound, bound + 1), repeat=length) if any(t)
            ]
            assert sorted(everything, key=search_order_key) == list(
                graded_coefficient_tuples(length, bound)
            )


@st.composite
def _orthogonal_search_cases(draw):
    length = draw(st.integers(1, 5))
    # small weights give many orthogonal tuples within bound 3, large ones few
    top = draw(st.sampled_from((6, 70)))
    weights = draw(
        st.lists(
            st.one_of(st.just(0), st.integers(-top, top)), min_size=length, max_size=length
        ).filter(any)
    )
    entries = st.integers(-4, 4)
    gram = [[0] * length for _ in range(length)]
    for i in range(length):
        for j in range(i, length):
            gram[i][j] = gram[j][i] = draw(entries)
    return weights, gram, draw(st.integers(1, 3))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_orthogonal_search_cases())
def test_first_orthogonal_tuple_matches_full_scan(case):
    weights, gram, bound = case
    for accept in (lambda c: dense_form_value(gram, c) > 0, lambda c: True, lambda c: c[0] < 0):
        assert first_orthogonal_tuple(weights, bound, accept) == first_hit_reference(
            weights, bound, accept
        )


def test_first_orthogonal_tuple_needs_a_nonzero_weight():
    with pytest.raises(ValueError):
        first_orthogonal_tuple([0, 0, 0], 3, lambda c: True)


def test_first_orthogonal_tuple_empty_searches_return_none():
    # one coordinate leaves only the zero tuple; a bound <= 0 leaves no tuple
    assert first_orthogonal_tuple([5], 16, lambda c: True) is None
    assert first_orthogonal_tuple([-1], 1, lambda c: True) is None
    for bound in (0, -1):
        assert first_orthogonal_tuple([3, -14, -7], bound, lambda c: True) is None
        assert first_orthogonal_tuple([2, 0], bound, lambda c: True) is None


_COEFF = st.one_of(st.integers(-40, 40), st.integers(-10**30, 10**30))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.integers(-6, 6), _COEFF, _COEFF, st.integers(-15, 15), st.integers(-15, 15))
def test_positive_on_interval_matches_brute_force(a, b, c, lo, hi):
    brute = any(a * x * x + b * x + c > 0 for x in range(lo, hi + 1))
    assert positive_on_interval(a, b, c, lo, hi) == brute


def test_positive_on_interval_at_the_vertex_only():
    # 2 - (2x - 5)^2 = -4x^2 + 20x - 23 is positive only at x = 2, 3
    for lo, hi, expected in ((-9, 9, True), (3, 9, True), (-9, 2, True), (4, 9, False)):
        assert positive_on_interval(-4, 20, -23, lo, hi) == expected
    assert not positive_on_interval(-1, 0, 1, 1, 0)  # empty interval


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-30, 30), st.integers(-6, 6)), min_size=1, max_size=4),
    st.integers(0, 20),
)
def test_line_box_interval_matches_brute_force(pairs, bound):
    base, step = zip(*pairs)
    lo, hi = line_box_interval(base, step, bound, -12, 12)
    inside = [
        x for x in range(-12, 13) if all(abs(b + x * s) <= bound for b, s in pairs)
    ]
    assert list(range(lo, hi + 1)) == inside


@pytest.mark.parametrize(
    "weights", [(3, -14, -7), (2, 0, 0), (1, 8, -8), (6, 6, -6), (4, 6, 3)]
)
def test_first_orthogonal_tuple_visits_each_orthogonal_tuple_once(weights):
    # step m = 14, m = 1 with a zero free weight, m = 8, m = 1 with nonzero
    # weights, and gcd(w_j, w_k) = 2 with odd prefix pairings to skip
    bound = 16
    seen = []

    def record(c):
        seen.append(c)
        return False

    assert first_orthogonal_tuple(weights, bound, record) is None
    orthogonal = {
        c
        for c in itertools.product(range(-bound, bound + 1), repeat=len(weights))
        if any(c) and sum(a * w for a, w in zip(c, weights)) == 0
    }
    assert len(seen) == len(set(seen))
    assert set(seen) == orthogonal


# --- caches -----------------------------------------------------------------

def test_caches_stay_within_their_bound(uu):
    caches = (_span_snf, _discriminant_generators, build_lambda)
    assert all(c.cache_info().maxsize == CACHE_SIZE for c in caches)
    q = RationalClass(uu.vector([1, 0, 0, 0]), 2)
    for k in range(CACHE_SIZE + 20):
        # a distinct Picard basis each time
        in_span_plus_lattice(q, (uu.vector([1, k, 0, 0]),))
        _discriminant_generators(GramLattice(1, ((k + 1,),)))
        build_lambda(k + 2)
    assert all(c.cache_info().currsize <= CACHE_SIZE for c in caches)
